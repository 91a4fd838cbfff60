"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here calls ``ray.init()`` / ``ray.shutdown()``.

- ``entry()``: flagship extraction pipeline over the synthesized sf0.001
  Common-Crawl-style pages table (BASELINE.json input_hint shape).
- ``queries()``: one callable per implemented operator/pipeline
  (SURVEY.md §2 + the training-data ops: dedup, similarity, text analysis).
- ``oracle_sql()``: DuckDB-equivalent SQL for every SQL-expressible query.
  Column names and arithmetic (integer cents via floor(x*100+0.5)) match the
  Ray implementations exactly; non-SQL-expressible ops (LSH, extraction) are
  omitted -> rows-only checks.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from typing import Any

import pandas as pd


def _pages_path(sf_dir: str) -> str:
    from yomitoku_ray.synth.pages import ensure_pages_parquet

    return ensure_pages_parquet(sf_dir)


def _merge_input_tmp(sf_dir: str) -> str:
    """sf-labeled temp dir for the extract output that feeds (and oracles)
    page_merge_by_domain."""
    import os

    label = os.path.basename(sf_dir.rstrip("/")) or "sf"
    return f"/tmp/yomitoku_ray_merge_input_{label}"


def entry() -> Any:
    """Flagship pipeline on the synthesized sf0.001 pages; returns a Dataset."""
    from yomitoku_ray.pipelines.extract import ExtractConfig, extract_pages

    path = _pages_path("/root/testdata/sf0.001")
    return extract_pages(path, ExtractConfig())


# ---------------------------------------------------------------------------
# Extraction queries (pages table is engine-synthesized; rows-only checks)
# ---------------------------------------------------------------------------


def _corpus_build(sf_dir: str) -> pd.DataFrame:
    from yomitoku_ray.pipelines.corpus import corpus_build_summary

    return corpus_build_summary(_pages_path(sf_dir))


def _extract_summary(sf_dir: str) -> pd.DataFrame:
    from yomitoku_ray.pipelines.extract import ExtractConfig, extract_pages

    ds = extract_pages(_pages_path(sf_dir), ExtractConfig())
    df = ds.select_columns(
        [
            "url",
            "lang",
            "error",
            "extracted_text",
            "n_words",
            "n_paragraphs",
            "n_tables",
            "n_figures",
            "n_boilerplate",
        ]
    ).to_pandas()
    out = pd.DataFrame(
        {
            "url": df["url"],
            "lang": df["lang"],
            "ok": (df["error"].isna()).astype("int64"),
            "n_words": df["n_words"].astype("int64"),
            "n_paragraphs": df["n_paragraphs"].astype("int64"),
            "n_tables": df["n_tables"].astype("int64"),
            "n_figures": df["n_figures"].astype("int64"),
            "n_boilerplate": df["n_boilerplate"].astype("int64"),
            "text_sha256": [
                hashlib.sha256(t.encode("utf-8")).hexdigest() for t in df["extracted_text"]
            ],
        }
    )
    return out.sort_values("url").reset_index(drop=True)


def _html_by_url(path: str, urls) -> dict:
    """Page bytes of the sampled urls. The url predicate is pushed down into
    the parquet scan, so only matching rows are read and collected."""
    import pyarrow.compute as pc
    import ray.data

    need = sorted(set(urls))
    sample = ray.data.read_parquet(
        path, columns=["url", "html"], filter=pc.field("url").isin(need)
    ).to_pandas()
    return dict(zip(sample["url"], sample["html"]))


def _extract_match_rate(sf_dir: str, n_sample: int = 200) -> pd.DataFrame:
    """Live north-star metric: pipeline output vs oracle, byte match rate."""
    import ray.data

    from yomitoku_ray.oracle import analyze_html_bytes
    from yomitoku_ray.pipelines.extract import ExtractConfig, build_extract_pipeline
    from yomitoku_ray.pipelines.extract import PAGES_COLUMNS

    path = _pages_path(sf_dir)
    src = ray.data.read_parquet(path, columns=PAGES_COLUMNS).limit(n_sample)
    result = build_extract_pipeline(src, ExtractConfig()).to_pandas()

    html_by_url = _html_by_url(path, result["url"])

    n_match = 0
    n_checked = 0
    for row in result.itertuples():
        oracle_out, oracle_err = analyze_html_bytes(html_by_url[row.url], row.url)
        if oracle_err is not None:
            n_checked += 1
            n_match += int(row.error is not None)
            continue
        n_checked += 1
        ok = (
            row.error is None
            and row.extracted_text == oracle_out["extracted_text"]
            and row.markdown == oracle_out["markdown"]
            and row.doc_json == oracle_out["doc_json"]
        )
        n_match += int(ok)
    return pd.DataFrame(
        {
            "n_checked": [n_checked],
            "n_match": [n_match],
            "match_rate_pct": [100 * n_match // max(1, n_checked)],
        }
    ).astype("int64")


def _semantic_summary(sf_dir: str) -> pd.DataFrame:
    """Semantic table parsing (grids/kv) over the synthesized pages."""
    from yomitoku_ray.pipelines.semantic import semantic_pages

    schema = {
        "fields": [
            {"name": "first_number", "regex": r"\d+", "normalize": "numeric"},
            {"name": "heading", "description": "の"},
        ]
    }
    ds = semantic_pages(_pages_path(sf_dir), extraction_schema=schema)
    df = ds.to_pandas()
    out = pd.DataFrame(
        {
            "url": df["url"],
            "ok": df["error"].isna().astype("int64"),
            "n_tables": df["n_tables"].astype("int64"),
            "n_kv_items": df["n_kv_items"].astype("int64"),
            "n_grids": df["n_grids"].astype("int64"),
            "views_sha256": [
                hashlib.sha256(s.encode("utf-8")).hexdigest() for s in df["views_json"]
            ],
            "extract_sha256": [
                hashlib.sha256(s.encode("utf-8")).hexdigest()
                for s in df["extraction_json"]
            ],
        }
    )
    return out.sort_values("url").reset_index(drop=True)


def _semantic_match_rate(sf_dir: str, n_sample: int = 200) -> pd.DataFrame:
    """Byte-identity gate for the semantic pipeline (the extract_match_rate
    pattern): the distributed SemanticExtractStage's three payload columns
    (semantic_json / views_json / extraction_json) and table counts are
    recomputed per row single-process in the driver and compared
    byte-for-byte, proving the Ray plumbing (actor split, batch
    boundaries, Arrow serialization) is semantically invisible."""
    import ray.data

    from yomitoku_ray.export.json_export import (
        fast_canonical_json,
        fast_semantic_dump_json,
        fast_views_json,
    )
    from yomitoku_ray.extractor.rule_pipeline import run_rule_extraction
    from yomitoku_ray.extractor.schema import ExtractionSchema
    from yomitoku_ray.pipelines.extract import PAGES_COLUMNS
    from yomitoku_ray.oracle import parse_semantic_html_bytes
    from yomitoku_ray.stages.page_stage import map_page_stage
    from yomitoku_ray.stages.semantic_stage import SemanticExtractStage

    schema_dict = {
        "fields": [
            {"name": "first_number", "regex": r"\d+", "normalize": "numeric"},
            {"name": "heading", "description": "の"},
        ]
    }
    path = _pages_path(sf_dir)
    src = ray.data.read_parquet(path, columns=PAGES_COLUMNS).limit(n_sample)
    result = map_page_stage(
        src, SemanticExtractStage, {"extraction_schema": schema_dict}, batch_size=32
    ).to_pandas()

    html_by_url = _html_by_url(path, result["url"])

    schema = ExtractionSchema.from_dict(schema_dict)
    n_match = 0
    n_checked = 0
    for row in result.itertuples():
        n_checked += 1
        doc, err = parse_semantic_html_bytes(html_by_url[row.url] or b"")
        if err is not None:
            n_match += int(row.error == err)
            continue
        ok = (
            row.error is None
            and row.semantic_json == fast_semantic_dump_json(doc)
            and row.views_json == fast_views_json(doc.to_dict())
            and row.extraction_json
            == fast_canonical_json(run_rule_extraction(doc, schema, simple=True))
            and row.n_tables == len(doc.tables)
            and row.n_kv_items == sum(len(t.kv_items) for t in doc.tables)
            and row.n_grids == sum(len(t.grids) for t in doc.tables)
        )
        n_match += int(ok)
    return pd.DataFrame(
        {
            "n_checked": [n_checked],
            "n_match": [n_match],
            "match_rate_pct": [100 * n_match // max(1, n_checked)],
        }
    ).astype("int64")


def _page_merge_by_domain(sf_dir: str) -> pd.DataFrame:
    """Multi-page merge keyed by domain (the G4 shuffle analogue).

    Runs BOTH the single-reducer ordered merge and the salted
    (prefix-range) two-phase merge and asserts byte-equality — the skew
    path must be semantically invisible.
    """
    import shutil

    import ray.data

    from yomitoku_ray.functions.merge import (
        merge_pages_by_domain,
        merge_pages_by_domain_salted,
    )
    from yomitoku_ray.pipelines.extract import ExtractConfig, extract_pages

    # The extraction feeds BOTH merge variants: compute it once into a
    # parquet temp and stream each merge from the files (no mid-pipeline
    # materialize of the full dataset in object-store memory). The path is
    # sf-labeled and also read by this query's DuckDB oracle (the driver
    # runs the Ray side first, so the files exist when the SQL executes —
    # the same technique as page_text_merge's oracle).
    tmp = _merge_input_tmp(sf_dir)
    shutil.rmtree(tmp, ignore_errors=True)
    extract_pages(_pages_path(sf_dir), ExtractConfig()).select_columns(
        ["url", "extracted_text"]
    ).write_parquet(tmp)
    cols = ["domain", "n_pages", "total_chars", "merged_sha256"]
    plain = (
        merge_pages_by_domain(ray.data.read_parquet(tmp), max_pages_per_domain=10**9)
        .to_pandas()[cols]
        .sort_values("domain")
        .reset_index(drop=True)
    )
    salted = (
        merge_pages_by_domain_salted(ray.data.read_parquet(tmp))
        .to_pandas()[cols]
        .sort_values("domain")
        .reset_index(drop=True)
    )
    assert plain.equals(salted), "salted merge diverged from ordered merge"
    return salted


def _domain_skew(sf_dir: str) -> pd.DataFrame:
    """Hot-domain probe over the pages table (pre-aggregated count)."""
    import ray.data

    from yomitoku_ray.functions.merge import domain_skew_probe

    ds = ray.data.read_parquet(_pages_path(sf_dir), columns=["url"])
    return domain_skew_probe(ds, top_n=20)


def _image_dhash(sf_dir: str) -> pd.DataFrame:
    """Image near-dup via 64-bit dHash over the synthesized images table
    plus planted self-checks (rows-only: pixel decode has no SQL form):

    - a LOSSLESS TRIO — the same pixels encoded as PNG, BMP and netpbm —
      must produce three IDENTICAL hashes (``ok_trio``);
    - a NEAR COPY — the trio image with a corner patch inverted — must
      land within a small nonzero Hamming distance of the original and be
      surfaced by the pigeonhole pair scan (``ok_near``).

    Columns: n_images, n_decoded, n_pairs, ok_trio, ok_near (int64).
    """
    import numpy as np
    import pyarrow as pa
    import ray.data

    from yomitoku_ray.functions.dedup import hamming_pairs_u64
    from yomitoku_ray.kernels.bmp import encode_bmp
    from yomitoku_ray.kernels.netpbm import encode_netpbm
    from yomitoku_ray.kernels.png import encode_png
    from yomitoku_ray.stages.multimodal import ImageDHashStage
    from yomitoku_ray.synth.images import ensure_images_parquet

    rng = np.random.RandomState(0xD45)
    px = rng.randint(0, 256, (32, 48, 3), dtype=np.uint8)
    near = px.copy()
    near[:4, :6] = 255 - near[:4, :6]  # one 9x8-cell patch flipped
    planted = pa.Table.from_pylist(
        [
            {"img_id": 1_000_001, "image": encode_png(px), "kind": "plant_png"},
            {"img_id": 1_000_002, "image": encode_bmp(px), "kind": "plant_bmp"},
            {"img_id": 1_000_003, "image": encode_netpbm(px), "kind": "plant_pnm"},
            {"img_id": 1_000_004, "image": encode_png(near), "kind": "plant_near"},
        ]
    )
    base = ray.data.read_parquet(ensure_images_parquet(sf_dir))
    ds = base.union(ray.data.from_arrow(planted)).map_batches(
        ImageDHashStage(), batch_format="pyarrow", batch_size=64
    )
    # Decode ONCE: the (img_id, dhash, error) projection is images-table
    # sized (two ints + a flag per image), so collect it and feed the pair
    # scan from the collected table instead of re-executing the strict
    # decode chain per consumer (3.4x measured).
    hashed_df = ds.select_columns(["img_id", "dhash", "dhash_error"]).to_pandas()
    okd = hashed_df[hashed_df["dhash_error"].isna()][["img_id", "dhash"]]
    pairs = hamming_pairs_u64(
        ray.data.from_pandas(okd.reset_index(drop=True)),
        "img_id",
        "dhash",
        n_chunks=8,
        hamming_max=7,
    )
    tbl = hashed_df.set_index("img_id")
    trio = [int(tbl.loc[i, "dhash"]) for i in (1_000_001, 1_000_002, 1_000_003)]
    ok_trio = int(trio[0] == trio[1] == trio[2])
    near_rows = pairs[
        (pairs["id_a"] == 1_000_001) & (pairs["id_b"] == 1_000_004)
    ]
    ok_near = int(len(near_rows) == 1 and 0 < int(near_rows["hamming"].iloc[0]) <= 7)
    return pd.DataFrame(
        {
            "n_images": pd.Series([len(tbl)], dtype="int64"),
            "n_decoded": pd.Series([int(tbl["dhash_error"].isna().sum())], dtype="int64"),
            "n_pairs": pd.Series([len(pairs)], dtype="int64"),
            "ok_trio": pd.Series([ok_trio], dtype="int64"),
            "ok_near": pd.Series([ok_near], dtype="int64"),
        }
    )


def _audio_fingerprint(sf_dir: str) -> pd.DataFrame:
    """Audio near-dup via the 64-bit spectral fingerprint (rows-only:
    PCM decode has no SQL form) with planted self-checks:

    - a VOLUME-SCALED copy (0.3x) of a planted tone sweep must fingerprint
      IDENTICALLY (``ok_volume`` — amplitude invariance by construction);
    - a NOISE-ADDED copy must land within a small Hamming radius and be
      surfaced by the pigeonhole pair scan (``ok_noise``).

    Columns: n_clips, n_decoded, n_pairs, ok_volume, ok_noise (int64).
    """
    import numpy as np
    import pyarrow as pa
    import ray.data

    from yomitoku_ray.functions.dedup import hamming_pairs_u64
    from yomitoku_ray.kernels.audio import encode_wav
    from yomitoku_ray.stages.multimodal import AudioFingerprintStage
    from yomitoku_ray.synth.audio import ensure_audio_parquet

    rate = 16000
    t = np.arange(rate * 2) / rate  # 2 s
    # per-eighth rising tones so every fingerprint frame has a clear peak
    base = np.concatenate(
        [
            0.6 * np.sin(2 * np.pi * (250 * (1 << (i % 6))) * t[: rate // 4])
            for i in range(8)
        ]
    )
    rng = np.random.RandomState(0xA0D10)
    noisy = base + 0.05 * rng.randn(len(base))
    planted = pa.Table.from_pylist(
        [
            {"clip_id": 1_000_001, "audio": encode_wav(base, rate), "kind": "plant"},
            {"clip_id": 1_000_002, "audio": encode_wav(0.3 * base, rate), "kind": "plant_vol"},
            {"clip_id": 1_000_003, "audio": encode_wav(noisy, rate), "kind": "plant_noise"},
        ]
    )
    base_ds = ray.data.read_parquet(
        ensure_audio_parquet(sf_dir), columns=["clip_id", "audio", "kind"]
    )
    ds = base_ds.union(ray.data.from_arrow(planted)).map_batches(
        AudioFingerprintStage(), batch_format="pyarrow", batch_size=64
    )
    fp_df = ds.select_columns(["clip_id", "audio_fp", "fp_error"]).to_pandas()
    okd = fp_df[fp_df["fp_error"].isna()][["clip_id", "audio_fp"]]
    pairs = hamming_pairs_u64(
        ray.data.from_pandas(okd.reset_index(drop=True)),
        "clip_id",
        "audio_fp",
        n_chunks=8,
        hamming_max=7,
    )
    tbl = fp_df.set_index("clip_id")
    ok_volume = int(
        int(tbl.loc[1_000_001, "audio_fp"]) == int(tbl.loc[1_000_002, "audio_fp"])
    )
    near = pairs[(pairs["id_a"] == 1_000_001) & (pairs["id_b"] == 1_000_003)]
    ok_noise = int(len(near) == 1 and int(near["hamming"].iloc[0]) <= 7)
    return pd.DataFrame(
        {
            "n_clips": pd.Series([len(tbl)], dtype="int64"),
            "n_decoded": pd.Series([int(tbl["fp_error"].isna().sum())], dtype="int64"),
            "n_pairs": pd.Series([len(pairs)], dtype="int64"),
            "ok_volume": pd.Series([ok_volume], dtype="int64"),
            "ok_noise": pd.Series([ok_noise], dtype="int64"),
        }
    )


def _video_dhash(sf_dir: str) -> pd.DataFrame:
    """Video near-dup: dHash of the MIDDLE frame of each MJPEG-AVI clip
    (frame-sample + the image fingerprint — the standard cheap video
    near-dup signal). Planted self-checks (rows-only):

    - a RE-ENCODED copy (same frames, lower JPEG quality) must land
      within a small nonzero-or-zero Hamming radius and surface in the
      pair scan (``ok_reenc`` — MJPEG is lossy, so bits may move but the
      perceptual hash must not);
    - a DIFFERENT clip (inverted frames) must NOT pair with the original
      (``ok_distinct``).

    Columns: n_videos, n_decoded, n_pairs, ok_reenc, ok_distinct (int64).
    """
    import numpy as np
    import pyarrow as pa
    import ray.data

    from yomitoku_ray.functions.dedup import hamming_pairs_u64
    from yomitoku_ray.kernels.avi import decode_avi_frame, encode_mjpeg_avi, index_avi
    from yomitoku_ray.stages.multimodal import ImageDHashStage
    from yomitoku_ray.synth.videos import ensure_videos_parquet

    # smooth structured frames (2-D sinusoids): decisive gradients survive
    # lossy MJPEG re-encode (random-noise frames have near-tie gradients
    # everywhere and flip many dHash bits — measured, hence this choice)
    y, x = np.mgrid[0:48, 0:64]
    frames = []
    for i in range(6):
        f = (127 + 120 * np.sin(x / (3 + i)) * np.cos(y / (4 + i))).astype(
            np.uint8
        )
        frames.append(np.stack([f, np.roll(f, i, axis=1), 255 - f], axis=2))
    inv = [255 - f for f in frames]
    planted = pa.Table.from_pylist(
        [
            {"vid_id": 1_000_001, "video": encode_mjpeg_avi(frames, quality=90),
             "kind": "plant"},
            {"vid_id": 1_000_002, "video": encode_mjpeg_avi(frames, quality=60),
             "kind": "plant_reenc"},
            {"vid_id": 1_000_003, "video": encode_mjpeg_avi(inv, quality=90),
             "kind": "plant_inv"},
        ]
    )

    def _mid_frame_dhash(batch: pa.Table) -> pa.Table:
        hashes, errs = [], []
        for blob in batch.column("video").to_pylist():
            try:
                idx = index_avi(blob or b"")
                spans = idx["frames"]
                px = decode_avi_frame(blob, spans[len(spans) // 2])
                hashes.append(ImageDHashStage.dhash_of_pixels(px))
                errs.append(None)
            except Exception as e:  # noqa: BLE001 — per-row isolation
                hashes.append(0)
                errs.append(str(e) or type(e).__name__)
        arr = np.array(hashes, dtype=np.uint64).view(np.int64)
        return batch.append_column(
            "vhash", pa.array(arr, pa.int64())
        ).append_column("vhash_error", pa.array(errs, pa.string()))

    ds = (
        ray.data.read_parquet(ensure_videos_parquet(sf_dir))
        .union(ray.data.from_arrow(planted))
        .map_batches(_mid_frame_dhash, batch_format="pyarrow", batch_size=16)
    )
    df = ds.select_columns(["vid_id", "vhash", "vhash_error"]).to_pandas()
    okd = df[df["vhash_error"].isna()][["vid_id", "vhash"]]
    pairs = hamming_pairs_u64(
        ray.data.from_pandas(okd.reset_index(drop=True)),
        "vid_id",
        "vhash",
        n_chunks=8,
        hamming_max=7,
    )
    tbl = df.set_index("vid_id")
    reenc = pairs[(pairs["id_a"] == 1_000_001) & (pairs["id_b"] == 1_000_002)]
    ok_reenc = int(len(reenc) == 1 and int(reenc["hamming"].iloc[0]) <= 7)
    ok_distinct = int(
        len(pairs[(pairs["id_a"] == 1_000_001) & (pairs["id_b"] == 1_000_003)]) == 0
    )
    return pd.DataFrame(
        {
            "n_videos": pd.Series([len(tbl)], dtype="int64"),
            "n_decoded": pd.Series([int(tbl["vhash_error"].isna().sum())], dtype="int64"),
            "n_pairs": pd.Series([len(pairs)], dtype="int64"),
            "ok_reenc": pd.Series([ok_reenc], dtype="int64"),
            "ok_distinct": pd.Series([ok_distinct], dtype="int64"),
        }
    )


def _url_quality(sf_dir: str):
    """RefinedWeb-style URL filter features over the pages table —
    shuffle-free integer features + keep gate (functions/merge.url_quality)."""
    import ray.data

    from yomitoku_ray.functions.merge import url_quality

    ds = ray.data.read_parquet(_pages_path(sf_dir), columns=["url"])
    return url_quality(ds)


def _page_text_merge(sf_dir: str) -> pd.DataFrame:
    """Skew-defused (prefix-range salted) ordered merge of the RAW page text
    by host domain — the G4 shuffle shape with a full SQL oracle: DuckDB's
    ``string_agg(text, '\\n' ORDER BY url)`` + sha256 must reproduce the
    two-phase distributed merge byte-for-byte."""
    import ray.data

    from yomitoku_ray.functions.merge import merge_pages_by_domain_salted

    ds = ray.data.read_parquet(_pages_path(sf_dir), columns=["url", "text"])
    out = merge_pages_by_domain_salted(ds, text_column="text").to_pandas()
    return out.sort_values("domain").reset_index(drop=True)


def _url_dedup_recrawl(sf_dir: str) -> pd.DataFrame:
    """Url-keyed exact dedup, first (min warc_ts) wins, over a crawl plus a
    synthetic 2h-later recrawl of every page (deterministic in both engines)."""
    import ray.data

    from yomitoku_ray.functions.merge import url_dedup_first

    cols = ["url", "warc_ts", "text", "lang"]
    ds = ray.data.read_parquet(_pages_path(sf_dir), columns=cols)

    def _recrawl(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        ts = pc.add(t.column("warc_ts"), pa.scalar(7_200_000_000, type=pa.duration("us")))
        txt = pc.binary_join_element_wise(t.column("text"), " recrawl", "")
        t = t.set_column(t.schema.get_field_index("warc_ts"), "warc_ts", ts)
        return t.set_column(t.schema.get_field_index("text"), "text", txt)

    both = ds.union(ds.map_batches(_recrawl, batch_format="pyarrow"))
    first = url_dedup_first(both)

    def _digest(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "url": df["url"],
                "warc_ts": df["warc_ts"],
                "lang": df["lang"],
                "text_sha256": [
                    hashlib.sha256(t.encode("utf-8")).hexdigest() for t in df["text"]
                ],
            }
        )

    out = first.map_batches(_digest, batch_format="pandas").to_pandas()
    return out.sort_values("url").reset_index(drop=True)


def _paged_extract(sf_dir: str) -> pd.DataFrame:
    """S2 multi-page source round trip: container docs -> page explosion ->
    extraction -> per-document ordered merge (the reference's load_pdf ->
    per-page analyze -> --combine flow as lazy Dataset stages)."""
    import ray.data

    from yomitoku_ray.functions.merge import merge_exploded_pages
    from yomitoku_ray.pipelines.extract import ExtractConfig, build_extract_pipeline
    from yomitoku_ray.sources.paged import (
        ensure_paged_docs_parquet,
        explode_paged_docs,
    )

    docs = ray.data.read_parquet(ensure_paged_docs_parquet(sf_dir))
    pages = explode_paged_docs(docs).select_columns(["url", "warc_ts", "html", "lang"])
    result = build_extract_pipeline(pages, ExtractConfig())
    merged = merge_exploded_pages(result)
    out = merged.to_pandas().sort_values("doc_url").reset_index(drop=True)

    # Self-checking gate (VERDICT r4 #5, the warc_roundtrip pattern): the
    # generator is a pure function of the doc index embedded in doc_url, so
    # the expected page count — and whether the container was deliberately
    # malformed — re-derives analytically in-query. ok_shape==1 everywhere.
    import random as _random

    from yomitoku_ray.synth.pages import SEED

    def _expected_shape(doc_url: str) -> tuple[int, bool]:
        i = int(doc_url.rsplit("/", 1)[1])
        r = _random.Random((SEED << 21) ^ (i * 2654435761))
        n_pages = r.randint(1, 5)
        malformed = r.random() < 0.02
        return n_pages, malformed

    oks = []
    for doc_url, n_pages, n_ok in zip(
        out["doc_url"], out["n_pages"], out["n_ok_pages"]
    ):
        want_pages, malformed = _expected_shape(doc_url)
        if malformed:  # one isolated error row, nothing extracted
            oks.append(int(n_pages == 1 and n_ok == 0))
        else:
            oks.append(int(n_pages == want_pages))
    out["ok_shape"] = pd.Series(oks, dtype="int64")
    return out


def _image_features_summary(sf_dir: str) -> pd.DataFrame:
    """Multimodal pipeline over the synthesized images table: header-sniff
    metadata + REAL pixel decode (PNG/GIF, repo-native codecs) + features,
    one task pass each; junk rows isolate per-row. Rows-only check
    (pixel decode has no SQL form); exact feature values are pinned by
    pytest against analytically-known images."""
    import ray.data

    from yomitoku_ray.stages.multimodal import ImageFeatureStage, ImageMetaStage
    from yomitoku_ray.synth.images import ensure_images_parquet

    ds = ray.data.read_parquet(ensure_images_parquet(sf_dir))
    ds = ds.map_batches(ImageMetaStage(), batch_format="pyarrow", batch_size=64)
    ds = ds.map_batches(
        ImageFeatureStage(backend_mode="fake"), batch_format="pyarrow", batch_size=64
    )
    rows = ds.take_all()
    out = pd.DataFrame(
        {
            "img_id": [r["img_id"] for r in rows],
            "kind": [r["kind"] for r in rows],
            "format": [r["image_meta"]["format"] for r in rows],
            "width": [r["image_meta"]["width"] for r in rows],
            "height": [r["image_meta"]["height"] for r in rows],
            "mean_luma_milli": [
                int(round(1000 * r["image_features"]["mean_luma"])) for r in rows
            ],
        }
    )
    out = out.sort_values("img_id").reset_index(drop=True).astype(
        {"img_id": "int64", "width": "int64", "height": "int64", "mean_luma_milli": "int64"}
    )

    # Self-checking gate (VERDICT r4 #5): the generator draws dimensions
    # from RandomState(0xC0FFEE ^ i) and the container format from i, so
    # expected dims and sniffed format re-derive analytically in-query.
    import numpy as _np

    _fmt_of_kind = {
        "png": "png", "gif": "gif", "jpeg": "jpeg", "jpeg420": "jpeg",
        "jpegprog": "jpeg", "jpegprogsa": "jpeg", "jpegarith": "jpeg",
        "jpegprogarith": "jpeg", "bmp": "bmp", "tiff": "tiff",
        "webp": "webp", "junk": "unknown",
    }
    ok_dims, ok_format = [], []
    for i, kind, fmt, w, h in zip(
        out["img_id"], out["kind"], out["format"], out["width"], out["height"]
    ):
        ok_format.append(int(fmt == _fmt_of_kind[kind]))
        if kind == "junk":
            ok_dims.append(int(w == -1 and h == -1))
        else:
            rng = _np.random.RandomState(0xC0FFEE ^ int(i))
            eh, ew = int(rng.randint(4, 24)), int(rng.randint(4, 24))
            ok_dims.append(int(w == ew and h == eh))
    out["ok_dims"] = pd.Series(ok_dims, dtype="int64")
    out["ok_format"] = pd.Series(ok_format, dtype="int64")
    return out


def _warc_split_parity(sf_dir: str, n_pages: int = 500) -> pd.DataFrame:
    """WARC intra-file split gate (rows-only, self-checking like
    warc_roundtrip): encode the first ``n_pages`` synthetic pages as a
    deliberately SKEWED two-shard layout (90/10), read them back through
    both the streaming one-task-per-file reader and the CDX-range split
    reader, and report per-url byte identity between the two paths plus
    against the source table. Every row should read ok_split=1, ok_src=1;
    the planned range count is attached so the gate proves the big shard
    actually split (n_ranges > 2)."""
    import os

    from yomitoku_ray.export.wet import _ts_us_of
    from yomitoku_ray.sources.warc import (
        build_cdx_dataset,
        read_warc,
        read_warc_split,
        write_warc_file,
    )
    from yomitoku_ray.synth.pages import generate_pages_table

    label = os.path.basename(sf_dir.rstrip("/")) or "sf"
    base = f"/tmp/yomitoku_ray_warcsplit_{label}"
    paths = [base + "_big.warc.gz", base + "_small.warc.gz"]
    table = generate_pages_table(n_pages)
    rows = [
        {
            "url": r["url"],
            "warc_ts": _ts_us_of(r["warc_ts"]),
            "html": r["html"],
            "lang": r["lang"],
        }
        for r in table.to_pylist()
    ]
    cut = (9 * n_pages) // 10
    if not (os.path.exists(paths[0]) and os.path.exists(paths[1])):
        write_warc_file(rows[:cut], paths[0])
        write_warc_file(rows[cut:], paths[1])
    cdx = build_cdx_dataset(paths)
    split_bytes = max(1 << 18, os.path.getsize(paths[0]) // 4)
    range_bytes = 1 << 18
    stream = read_warc(paths).to_pandas().set_index("url").sort_index()
    split = (
        read_warc_split(
            paths, cdx=cdx, split_bytes=split_bytes, range_bytes=range_bytes
        )
        .to_pandas()
        .set_index("url")
        .sort_index()
    )
    n_ranges = -(-os.path.getsize(paths[0]) // range_bytes)
    want = {r["url"]: r for r in rows}
    out = pd.DataFrame(
        {
            "url": stream.index,
            "ok_split": [
                int(
                    u in split.index
                    and bytes(stream.loc[u, "html"]) == bytes(split.loc[u, "html"])
                    and stream.loc[u, "warc_ts"] == split.loc[u, "warc_ts"]
                )
                for u in stream.index
            ],
            "ok_src": [
                int(bytes(stream.loc[u, "html"]) == bytes(want[u]["html"]))
                for u in stream.index
            ],
            "n_ranges": pd.Series([int(n_ranges)] * len(stream), dtype="int64"),
        }
    )
    out["ok_split"] = out["ok_split"].astype("int64")
    out["ok_src"] = out["ok_src"].astype("int64")
    return out.sort_values("url").reset_index(drop=True)


def _jsonl_roundtrip(sf_dir: str) -> pd.DataFrame:
    """JSONL sink/source gate (rows-only, self-checking like warc_roundtrip):
    write the documents table as Dolma-layout ``.jsonl.gz`` shards (one per
    block, whole-stream gzip, mtime=0), read it back through the streaming
    JsonlDatasource, and report per-doc exact identity of every column.
    Every row should read ok_text=1, ok_meta=1; n_shards proves the write
    was distributed (one shard per block, > 1)."""
    import glob
    import os
    import shutil

    import ray.data

    from yomitoku_ray.export.jsonl import read_jsonl, write_jsonl

    label = os.path.basename(sf_dir.rstrip("/")) or "sf"
    out = f"/tmp/yomitoku_ray_jsonl_{label}"
    shutil.rmtree(out, ignore_errors=True)
    src = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    write_jsonl(src, out)
    n_shards = len(glob.glob(os.path.join(out, "*.jsonl.gz")))
    got = read_jsonl(out).to_pandas().set_index("doc_id").sort_index()
    want = src.to_pandas().set_index("doc_id").sort_index()
    ok_text = (got["text"] == want["text"]).astype("int64")
    ok_meta = (
        (got["lang"] == want["lang"])
        & (got["source"] == want["source"])
        & (got["n_chars"].astype("int64") == want["n_chars"].astype("int64"))
    ).astype("int64")
    return pd.DataFrame(
        {
            "doc_id": want.index,
            "ok_text": ok_text.values,
            "ok_meta": ok_meta.values,
            "n_shards": pd.Series([int(n_shards)] * len(want), dtype="int64"),
        }
    ).reset_index(drop=True)


def _host_link_graph(sf_dir: str, n_pages: int = 1000) -> pd.DataFrame:
    """Host-level link graph over the synthetic pages (rows-only,
    self-checking): per-page A/IMG/LINK harvest -> urljoin resolve ->
    per-batch pair combiner -> one hosts²-bounded groupby. The ok_total
    column compares each host's edge total against an INDEPENDENT exact
    ground truth — a byte count of b'<a href="' over the raw page bytes
    (the synth corpus' links are all double-quoted A@/href in
    ASCII-transparent encodings), which shares no code with the DOM
    parser. Every row should read ok_total=1."""
    import ray.data

    from yomitoku_ray.functions.linkgraph import host_link_graph
    from yomitoku_ray.functions.merge import _domain_of
    from yomitoku_ray.synth.pages import generate_pages_table

    table = generate_pages_table(n_pages)
    got = (
        host_link_graph(ray.data.from_arrow(table))
        .to_pandas()
        .sort_values(["src_host", "dst_host"])
        .reset_index(drop=True)
    )

    want: dict[str, int] = {}
    for r in table.to_pylist():
        h = _domain_of(r["url"]).lower()
        want[h] = want.get(h, 0) + bytes(r["html"]).count(b'<a href="')
    got["ok_total"] = pd.Series(
        [
            int(s == d and int(n) == want.get(s, 0))
            for s, d, n in zip(got["src_host"], got["dst_host"], got["n_links"])
        ],
        dtype="int64",
    )
    got["n_links"] = got["n_links"].astype("int64")
    return got


def _wat_roundtrip(sf_dir: str, n_pages: int = 500) -> pd.DataFrame:
    """WAT sink/source gate (rows-only, self-checking like warc_roundtrip):
    write the synthetic pages table as CC-layout ``.warc.wat.gz`` metadata
    shards, stream them back, and compare the lifted title/link-count
    columns against a direct single-process DOM parse of the same html,
    plus µs identity of warc_ts. Every row should read ok_meta=1, ok_ts=1."""
    import os
    import shutil

    import ray.data

    from yomitoku_ray.dom import decode_html, parse_html
    from yomitoku_ray.export.wat import _LINK_ATTRS, read_wat, write_wat
    from yomitoku_ray.export.wet import _ts_us_of
    from yomitoku_ray.synth.pages import generate_pages_table

    label = os.path.basename(sf_dir.rstrip("/")) or "sf"
    out = f"/tmp/yomitoku_ray_wat_{label}"
    shutil.rmtree(out, ignore_errors=True)
    table = generate_pages_table(n_pages)
    write_wat(ray.data.from_arrow(table), out)
    got = read_wat(out).to_pandas().set_index("url").sort_index()

    urls, ok_meta, ok_ts, n_links = [], [], [], []
    for r in table.to_pylist():
        try:
            root = parse_html(decode_html(r["html"]))
            ts = root.find_all("title")
            want_title = ts[0].text_content() if ts else None
            want_links = sum(
                1
                for n in root.iter()
                for t, a in _LINK_ATTRS
                if n.tag == t and n.attr(a)
            )
        except Exception:
            want_title, want_links = None, 0
        row = got.loc[r["url"]]
        urls.append(r["url"])
        got_title = row["title"] if row["title"] is not None else None
        ok_meta.append(
            int(got_title == want_title and int(row["n_links"]) == want_links)
        )
        ok_ts.append(int(_ts_us_of(row["warc_ts"]) == _ts_us_of(r["warc_ts"])))
        n_links.append(int(row["n_links"]))
    return (
        pd.DataFrame(
            {
                "url": urls,
                "ok_meta": pd.Series(ok_meta, dtype="int64"),
                "ok_ts": pd.Series(ok_ts, dtype="int64"),
                "n_links": pd.Series(n_links, dtype="int64"),
            }
        )
        .sort_values("url")
        .reset_index(drop=True)
    )


def _warc_roundtrip(sf_dir: str, n_pages: int = 500) -> pd.DataFrame:
    """WARC source gate (rows-only; self-checking like extract_match_rate):
    encode the first ``n_pages`` synthetic pages as a Common-Crawl-layout
    ``.warc.gz`` (one gzip member per record), stream it back through the
    WarcDatasource, and report per-url byte identity of the html payload
    plus microsecond identity of warc_ts against the source table. Every
    row should read (ok_bytes=1, ok_ts=1); pytest additionally pins the
    downstream extract byte-identity (tests/test_warc_source.py)."""
    import os

    from yomitoku_ray.export.wet import _ts_us_of
    from yomitoku_ray.sources.warc import read_warc, write_warc_file
    from yomitoku_ray.synth.pages import generate_pages_table

    label = os.path.basename(sf_dir.rstrip("/")) or "sf"
    path = f"/tmp/yomitoku_ray_warc_{label}.warc.gz"
    table = generate_pages_table(n_pages)
    rows = [
        {
            "url": r["url"],
            "warc_ts": _ts_us_of(r["warc_ts"]),
            "html": r["html"],
            "lang": r["lang"],
        }
        for r in table.to_pylist()
    ]
    write_warc_file(rows, path)
    got = read_warc(path).to_pandas()
    want = pd.DataFrame(rows)
    m = got.merge(want, on="url", suffixes=("", "_want"))
    out = pd.DataFrame(
        {
            "url": m["url"],
            "ok_bytes": [
                int(bytes(a) == bytes(b)) for a, b in zip(m["html"], m["html_want"])
            ],
            "ok_ts": (
                m["warc_ts"].astype("datetime64[us]").astype("int64")
                == m["warc_ts_want"].astype("int64")
            ).astype("int64"),
            "http_status": m["http_status"].astype("int64"),
        }
    )
    out["ok_bytes"] = out["ok_bytes"].astype("int64")
    return out.sort_values("url").reset_index(drop=True)


def _video_frames_summary(sf_dir: str) -> pd.DataFrame:
    """Multimodal video pipeline over the synthesized MJPEG-AVI table:
    container index walk (no decode) + per-sampled-frame JPEG decode and
    luma features in one task pass; junk rows isolate per-row. Rows-only
    check; exact per-frame values are pinned by pytest against analytic
    ground truth (flat frames decode exactly)."""
    import ray.data

    from yomitoku_ray.stages.multimodal import VideoFrameFeatureStage
    from yomitoku_ray.synth.videos import ensure_videos_parquet

    ds = ray.data.read_parquet(ensure_videos_parquet(sf_dir))
    ds = ds.map_batches(VideoFrameFeatureStage(), batch_format="pyarrow", batch_size=32)
    out = ds.to_pandas().sort_values(["vid_id", "frame_idx"]).reset_index(drop=True)

    # Self-checking gate (VERDICT r4 #5): clips are pure functions of
    # vid_id — flat frames decode EXACTLY, so per-frame luma, frame count
    # and fps all re-derive analytically in-query. ok==1 everywhere.
    import numpy as _np

    from yomitoku_ray.kernels.png import to_gray
    from yomitoku_ray.synth.videos import expected_frame_gray

    oks = []
    for vid, fi, nf, fps, luma, err in zip(
        out["vid_id"], out["frame_idx"], out["n_frames"], out["fps"],
        out["mean_luma_milli"], out["error"],
    ):
        i = int(vid)
        has_err = not pd.isna(err)
        if i % 25 == 24:  # junk container -> one isolated error row
            oks.append(int(has_err and int(fi) == -1))
            continue
        rng = _np.random.RandomState(0x51DE0 ^ i)
        h, w = int(rng.randint(8, 24)), int(rng.randint(8, 24))
        want_frames = int(rng.randint(2, 9))
        if int(nf) != want_frames or int(fps) != 5 + (i % 3) or has_err:
            oks.append(0)
            continue
        if i % 2 == 0:
            # luma is Rec.601 in [0,1]; a flat gray frame decodes exactly
            want = int(round(1000 * expected_frame_gray(i, int(fi)) / 255.0))
        else:
            color = rng.randint(0, 256, 3, dtype=_np.uint8)
            px = _np.full((1, 1, 3), color[None, None, :], dtype=_np.uint8)
            want = int(round(1000 * float(to_gray(px).mean())))
        oks.append(int(int(luma) == want))
    out["ok"] = pd.Series(oks, dtype="int64")
    return out


def _audio_features_summary(sf_dir: str) -> pd.DataFrame:
    """Audio pipeline over the synthesized WAV table: real PCM decode +
    RMS/ZCR/rFFT features in one task pass; junk rows isolate
    per-row. Rows-only check (no SQL FFT); tests pin dominant frequencies
    against the generator's analytic ground truth."""
    import ray.data

    from yomitoku_ray.stages.multimodal import AudioFeatureStage
    from yomitoku_ray.synth.audio import ensure_audio_parquet

    ds = ray.data.read_parquet(ensure_audio_parquet(sf_dir))
    ds = ds.map_batches(AudioFeatureStage(), batch_format="pyarrow", batch_size=64)
    rows = ds.take_all()
    out = pd.DataFrame(
        {
            "clip_id": [r["clip_id"] for r in rows],
            "kind": [r["kind"] for r in rows],
            "ok": [int(r["audio_features"]["error"] is None) for r in rows],
            "duration_ms": [r["audio_features"]["duration_ms"] for r in rows],
            "dominant_hz": [r["audio_features"]["dominant_hz"] for r in rows],
            "rms_milli": [r["audio_features"]["rms_milli"] for r in rows],
            "true_hz": [r["true_hz"] for r in rows],
        }
    )
    out = out.sort_values("clip_id").reset_index(drop=True).astype(
        {
            c: "int64"
            for c in ("clip_id", "ok", "duration_ms", "dominant_hz", "rms_milli", "true_hz")
        }
    )

    # Self-checking gate (VERDICT r4 #5): the generator writes each tone on
    # an exact FFT bin and records it in true_hz, and rate/length are pure
    # functions of clip_id — so dominant frequency and duration re-derive
    # analytically in-query. ok_gate==1 everywhere.
    _rates = (8000, 16000, 22050)
    oks = []
    for cid, kind, ok, dur, dom, true in zip(
        out["clip_id"], out["kind"], out["ok"], out["duration_ms"],
        out["dominant_hz"], out["true_hz"],
    ):
        i = int(cid)
        if kind == "junk":
            oks.append(int(ok == 0))
            continue
        rate = _rates[i % 3]
        seconds = 0.25 + 0.25 * (i % 3)
        want_ms = int(round(1000 * int(rate * seconds) / rate))
        good = ok == 1 and int(dur) == want_ms
        if kind in ("sine", "twotone"):
            good = good and int(dom) == int(true)
        oks.append(int(good))
    out["ok_gate"] = pd.Series(oks, dtype="int64")
    return out


def _ann_ivfpq_recall(sf_dir: str, floor_pct: int = 70) -> pd.DataFrame:
    """Recall floor of the routed IVFPQ vs the exhaustive ADC ranking
    (ann_pq) — the ann_recall pattern: int-only output, the oracle pins
    (floor, holds), so a routing-recall regression turns this row red."""
    from yomitoku_ray.functions.similarity import _recall_floor, ann_ivfpq, ann_pq

    return _recall_floor(ann_pq(sf_dir), ann_ivfpq(sf_dir), floor_pct)


def _ann_with_self_check(fn, sf_dir: str) -> pd.DataFrame:
    """Wrap an approximate-ANN query with exact-int self-checks (the
    rows-only gate pattern): for every returned (query, neighbor) pair,
    recompute the exact cosine on the raw embeddings and assert (ok_rank)
    that within each query the ranks are ordered by non-increasing score
    with the documented (score desc, neighbor_id asc) tie-break, and
    (ok_self) that no self-match leaked. Approximation affects WHICH
    neighbors appear — never the internal ordering — so every row must
    read ok_rank=1, ok_self=1."""
    import numpy as np
    import ray.data

    out = fn(sf_dir).copy()
    ids = np.array(sorted(set(out["query_id"]) | set(out["neighbor_id"])), dtype="int64")

    def _pick(df):
        return df[df["vec_id"].isin(ids)]

    emb = (
        ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        .map_batches(_pick, batch_format="pandas")
        .to_pandas()  # result-set-sized (<= k x queries rows)
    )
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in emb["embedding"]])
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    row_of = {int(v): i for i, v in enumerate(emb["vec_id"])}
    score = [
        float(mat[row_of[int(q)]] @ mat[row_of[int(n)]])
        for q, n in zip(out["query_id"], out["neighbor_id"])
    ]
    out["_s"] = score
    ok_rank = []
    for _, g in out.groupby("query_id", sort=False):
        g = g.sort_values("rank")
        good = True
        prev = None
        for s_, n_ in zip(g["_s"], g["neighbor_id"]):
            if prev is not None:
                if s_ > prev[0] + 1e-12 or (abs(s_ - prev[0]) <= 1e-12 and n_ < prev[1]):
                    good = False
            prev = (s_, n_)
        ok_rank.extend([int(good)] * len(g))
    out = out.drop(columns=["_s"])
    out["ok_rank"] = pd.Series(ok_rank, dtype="int64")
    out["ok_self"] = (out["query_id"] != out["neighbor_id"]).astype("int64")
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


def queries() -> dict[str, Callable[[str], Any]]:
    from yomitoku_ray.functions.dedup import (
        exact_dedup,
        soft_dedup_weights,
        corpus_sample,
        cross_corpus_near_dup,
        shuffle_rank,
        dup_components,
        dup_ngram_spans,
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
        simhash_dup_pairs,
    )
    from yomitoku_ray.functions.relational import (
        events_asof_orders,
        events_close_pairs,
        events_funnel,
        events_hourly,
        event_pagerank,
        events_retention,
        events_spike_days,
        events_sliding,
        customers_without_orders,
        orders_priority_monthly,
        part_type_stats,
        pricing_summary,
        suppliers_per_region,
        revenue_by_segment,
        top_parts_by_revenue,
        top_supplier_per_nation,
        user_sessions,
    )
    from yomitoku_ray.state.dedup_index import streaming_dedup_count
    from yomitoku_ray.functions.similarity import (
        ann_ivf,
        ann_ivf_stats,
        ann_lsh,
        ann_lsh_stats,
        ann_recall,
        embedding_near_dup,
        semdedup,
        ann_kmeans,
        kmeans_assign,
        knn_brute_force,
        pq_codes,
        ann_pq,
        ann_ivfpq,
    )
    from yomitoku_ray.functions.clean import (
        contamination_check,
        corpus_split,
        dedup_corpus,
        segment_dedup,
        gopher_repetition,
        pack_sequences,
        props_scrub,
        quality_topk,
        source_mix_weights,
        substring_dedup_rollup,
    )
    from yomitoku_ray.functions.text_stats import (
        bigram_coverage,
        term_cooccurrence,
        distinctive_terms,
        corpus_prep,
        doc_stats,
        lang_id,
        quality_score,
        doc_length_percentiles,
        source_length_percentiles,
        tfidf_top_terms,
        token_count_bpe,
        top_terms,
        winnow_fingerprints,
        dsir_weights,
        dsir_select,
        ccnet_perplexity,
        nb_classifier,
        token_entropy,
    )
    from yomitoku_ray.functions.sketch import (
        cms_top_term_counts,
        hll_distinct_tokens,
    )

    return {
        # extraction pipeline (pages synthesized from BASELINE input_hint)
        "extract_summary": _extract_summary,
        # flagship composition: extract -> clean/quality -> digest dedup
        # in one streaming run (pipelines/corpus.py); rows-only (the
        # extraction stage is not SQL-expressible) but every gate is
        # pinned by tests/test_corpus_pipeline.py
        "corpus_build": _corpus_build,
        "extract_match_rate": _extract_match_rate,
        "semantic_summary": _semantic_summary,
        # semantic byte-identity gate (distributed stage vs single-process
        # recompute); hash-green via the pinned 100%-match oracle row
        "semantic_match_rate": _semantic_match_rate,
        "page_merge_by_domain": _page_merge_by_domain,
        "domain_skew": _domain_skew,
        # RefinedWeb URL filtering: exact-integer URL features + keep gate
        "url_quality": _url_quality,
        "page_text_merge": _page_text_merge,
        "url_dedup_recrawl": _url_dedup_recrawl,
        "paged_extract": _paged_extract,
        "image_features_summary": _image_features_summary,
        # image near-dup: 64-bit dHash + pigeonhole Hamming pairs; planted
        # lossless-trio and near-copy self-checks (rows-only, ok columns)
        "image_dhash": _image_dhash,
        "audio_features_summary": _audio_features_summary,
        # audio near-dup: 64-bit spectral fingerprint + pigeonhole pairs;
        # planted volume-invariance and noise-robustness self-checks
        "audio_fingerprint": _audio_fingerprint,
        "video_frames_summary": _video_frames_summary,
        # video near-dup: middle-frame dHash + pigeonhole pairs; planted
        # re-encode-robustness and distinct-clip self-checks
        "video_dhash": _video_dhash,
        # WARC source gate: CC-layout .warc.gz round trip, byte identity
        "warc_roundtrip": _warc_roundtrip,
        "warc_split_parity": _warc_split_parity,
        # JSONL sink/source gate: Dolma-layout .jsonl.gz shard round trip,
        # exact column identity per doc (rows-only, ok columns)
        "jsonl_roundtrip": _jsonl_roundtrip,
        # WAT sink/source gate: CC metadata envelope round trip, title/link
        # parity vs a direct DOM parse (rows-only, ok columns)
        "wat_roundtrip": _wat_roundtrip,
        # cc-webgraph shape: host-level link-graph edge list; per-host
        # totals checked against an independent byte-pattern ground truth
        "host_link_graph": _host_link_graph,
        # text analysis (documents)
        "doc_stats": doc_stats,
        "quality_score": quality_score,
        "lang_id": lang_id,
        "corpus_prep": corpus_prep,
        "token_count_bpe": token_count_bpe,
        "winnow_fingerprints": winnow_fingerprints,
        # DSIR (Xie et al. 2023): hashed-unigram importance weights vs the
        # target_lang slice; per-bucket log-ratios frozen to integer
        # fixed-point (pagerank posture), doc sums pure int
        "dsir_weights": dsir_weights,
        # DSIR selection: noise-free top-k resample (pure integer ranking)
        "dsir_select": dsir_select,
        # DSIR with the paper's full hashed uni+bigram feature set
        "dsir_weights_bigram": lambda sf_dir: dsir_weights(sf_dir, bigrams=True),
        # CCNet perplexity buckets (Wenzek et al. 2020): per-lang hashed-
        # bigram LM trained on the src0 reference slice, integer fixed-point
        # NLLs, exact per-lang head/middle/tail terciles
        "ccnet_perplexity": ccnet_perplexity,
        # the CCNet SELECTION: keep head+middle terciles (what ships to
        # training); expression-pushdown filter over the bucket column
        "ccnet_head_middle": lambda sf_dir: ccnet_perplexity(sf_dir).filter(
            expr="ppl_bucket <= 1"
        ),
        # fastText-style trained classifier (model-based filtering family):
        # multinomial NB over hashed unigram buckets, src0-trained,
        # integer-exact argmax (~32% acc vs 29% for the marker heuristic —
        # the synthetic text is largely lang-agnostic by construction)
        "nb_langid": nb_classifier,
        # HyperLogLog distinct-token sketch: per-batch partial registers
        # merged by an order-free max; integer-exact estimator (frozen
        # alpha ppm; the sole ln seam verified over its ENTIRE input space)
        "hll_distinct_tokens": hll_distinct_tokens,
        # Count-Min sketch: order-free SUM-merged counters, d x w driver
        # state, NO float seam; output pins est >= exact (one-sided error)
        "cms_top_term_counts": cms_top_term_counts,
        # token-distribution entropy (lexical diversity / gibberish
        # filter): shuffle-free, integer fixed-point with a margin-checked
        # ln value-space seam
        "token_entropy": token_entropy,
        # CCNet-style LM coverage: corpus bigram table shuffle-joined to
        # each doc's bigrams (never broadcast; table is corpus-sized)
        "bigram_coverage": bigram_coverage,
        "top_terms": top_terms,
        # windowed co-occurrence pair top-k (PMI raw-count core)
        "term_cooccurrence": term_cooccurrence,
        # per-source exclusive vocabulary (group-wise top-k composition)
        "distinctive_terms": distinctive_terms,
        "doc_length_percentiles": doc_length_percentiles,
        # grouped exact percentiles (histogram combiner per source bucket)
        "source_length_percentiles": source_length_percentiles,
        # per-doc keyword: argmax tf/df through a shuffled df join
        "tfidf_top_terms": tfidf_top_terms,
        # dedup family
        "exact_dedup": exact_dedup,
        # SoftDeDup: reweight duplicates (1e6 // multiplicity) instead of
        # dropping them — one digest shuffle, integer output
        "soft_dedup_weights": soft_dedup_weights,
        # max_bucket sized so the LSH pair set is exact at test scale (the
        # DuckDB oracle computes the full >=threshold pair set; the default
        # 64-doc skew guard would drop pairs if a duplicate class ever grew
        # past it — see minhash_lsh_pairs docstring).
        "minhash_lsh_pairs": lambda sf_dir: minhash_lsh_pairs(sf_dir, max_bucket=4096),
        "simhash_dup_pairs": simhash_dup_pairs,
        "ngram_jaccard_pairs": ngram_jaccard_pairs,
        # dedup resolution: distributed connected components over the
        # near-dup pair graph (min-label propagation; component = keeper)
        "dup_components": dup_components,
        # exact substring-window duplication signal (Lee et al. 2022 core):
        # coarse-bucketed window-hash join + per-doc interval-union coverage
        "dup_ngram_spans": dup_ngram_spans,
        # incremental-ingest dedup: verified near-dup pairs crossing the
        # old-corpus/new-batch boundary (XOR side filter, no extra shuffle)
        "cross_corpus_near_dup": cross_corpus_near_dup,
        # dedup RESOLUTION applied to the corpus: components -> drop
        # non-representatives -> anti-join rollup of the surviving docs
        "dedup_corpus": dedup_corpus,
        # C4-style cross-doc segment dedup: hash-bucketed distinct-doc
        # count per 10-word segment, doc rebuild in segment order
        "segment_dedup": segment_dedup,
        # deterministic stratified split rollup (md5-residue assignment)
        "corpus_split": corpus_split,
        # Gopher/MassiveText-style repetition quality signals (exact ints)
        "gopher_repetition": gopher_repetition,
        # regex scrub stage (PII-redaction plumbing) exercised over props
        "props_scrub": props_scrub,
        # stratified window-rank selection (partial top-k combiner)
        "quality_topk": quality_topk,
        # sequence packing offsets via distributed prefix scan
        "pack_sequences": pack_sequences,
        # train/eval shingle-overlap scan (broadcast eval set)
        "contamination_check": contamination_check,
        # temperature-scaled (t=0.5) source mixing weights, integer ppm
        "source_mix_weights": source_mix_weights,
        # substring-dedup RESOLUTION per source (dup_ngram_spans composed
        # through one doc-bucket shuffle with the source/token-count side)
        "substring_dedup_rollup": substring_dedup_rollup,
        # deterministic hash sampling (no count, no shuffle, SQL-replicable)
        "corpus_sample": corpus_sample,
        # cross-block STREAMING dedup via the sharded raw-actor index
        # (the Dataset API can't hold mutable state across blocks); the
        # survivor COUNTS are deterministic and SQL-pinned
        "streaming_dedup_count": streaming_dedup_count,
        # deterministic training-order shuffle: global md5-order rank via
        # ordered-bucket counts + driver prefix scan (no global sort)
        "shuffle_rank": shuffle_rank,
        # similarity search (embeddings)
        "knn_brute_force": knn_brute_force,
        # distributed Lloyd k-means: broadcast centroids, combiner update
        "kmeans_assign": kmeans_assign,
        # product quantization (Jegou 2011): per-subspace Lloyd codebooks,
        # one broadcast-assign pass; integer codes only
        "pq_codes": pq_codes,
        # ADC search over PQ codes (the IVFPQ search half): scoring uses
        # only codes + per-query distance tables
        "ann_pq": ann_pq,
        "ann_lsh": lambda sf_dir: _ann_with_self_check(ann_lsh, sf_dir),
        "ann_ivf": lambda sf_dir: _ann_with_self_check(ann_ivf, sf_dir),
        # IVF invariant: probing every partition must reproduce brute force
        # exactly (partition+route plumbing changes nothing but scan scope);
        # hash-checked against the same SQL oracle as knn_brute_force.
        "ann_ivf_exhaustive": lambda sf_dir: ann_ivf(sf_dir, nprobe=1_000_000),
        # LSH invariant: probing all 2^n_planes buckets must reproduce brute
        # force exactly (hash/route/partition plumbing changes only scan
        # scope); hash-checked against the same SQL oracle.
        "ann_lsh_exhaustive": lambda sf_dir: ann_lsh(sf_dir, probe_all=True),
        # learned-partition IVF (kmeans centroids): probing every
        # partition must reproduce brute force exactly, same oracle
        "ann_kmeans_exhaustive": lambda sf_dir: ann_kmeans(sf_dir, probe_all=True),
        # Exact-int bounds of the DEFAULT approximate configs (probed-bucket
        # count + candidate-set size per query) — SQL reproduces the index
        # routing, shrinking the approximate rows to summary-only no_oracle.
        "ann_lsh_stats": ann_lsh_stats,
        "ann_ivf_stats": ann_ivf_stats,
        "ann_recall": ann_recall,
        # IVFPQ (coarse kmeans routing x ADC-over-codes scoring): with
        # probe_all the composition must reproduce ann_pq EXACTLY (routing
        # changes only scan scope, never the ADC order) — same SQL oracle
        "ann_ivfpq_exhaustive": lambda sf_dir: ann_ivfpq(sf_dir, probe_all=True),
        # recall floor of the routed IVFPQ config vs exhaustive ADC
        # (measured 90% at sf0.001/sf0.01 under nprobe=4/8)
        "ann_ivfpq_recall": _ann_ivfpq_recall,
        "embedding_near_dup": embedding_near_dup,
        # SemDeDup: kmeans-cluster-scoped embedding near-dup (greedy min-id
        # survivor rule; discrete int outputs only)
        "semdedup": semdedup,
        # paper keep-rule variant (closest-to-centroid survives)
        "semdedup_centroid": lambda sf_dir: semdedup(sf_dir, keep="centroid"),
        # relational aggregate layer
        "pricing_summary": pricing_summary,
        "revenue_by_segment": revenue_by_segment,
        "top_parts_by_revenue": top_parts_by_revenue,
        # arg-max per group over a 3-table join (combiner pre-agg + one
        # suppkey shuffle + broadcast dimension lookup + grouped arg-max)
        "top_supplier_per_nation": top_supplier_per_nation,
        "suppliers_per_region": suppliers_per_region,
        "orders_priority_monthly": orders_priority_monthly,
        "part_type_stats": part_type_stats,
        "events_hourly": events_hourly,
        # sliding 60-min window, 15-min slide (bounded vectorized explode)
        "events_sliding": events_sliding,
        # large-large anti-join (tag/union/coarse-bucket/vectorized isin)
        "customers_without_orders": customers_without_orders,
        "events_asof_orders": events_asof_orders,
        "events_close_pairs": events_close_pairs,
        # funnel conversion: first view -> earliest purchase within window
        # (coarse user buckets + vectorized forward merge_asof per bucket)
        "events_funnel": events_funnel,
        # cohort retention matrix: one user-bucket shuffle, vectorized
        # first-day + offsets per bucket, dimension-sized final rollup
        "events_retention": events_retention,
        # integer fixed-point PageRank over the event-type transition
        # graph: one coarse user-bucket shuffle for edge extraction,
        # dimension-sized driver iteration
        "event_pagerank": event_pagerank,
        # integer-exact 2-sigma daily spike flags (monitoring shape)
        "events_spike_days": events_spike_days,
        "user_sessions": user_sessions,
    }


_STOP_SQL = r"\b(the|a|an|and|or|of|to|in|is|it)\b"
_CENTS = "CAST(floor({col}*100 + 0.5) AS BIGINT)"


# Shared DuckDB CTE: k=3 token shingles per doc as distinct strings.
# Jaccard over distinct shingle strings == the Ray engines' Jaccard over
# 64-bit shingle hashes (hash injectivity at corpus test scale); both sides
# use pure integer threshold/percentage arithmetic.
_SHINGLES_CTE = r"""
WITH d AS (
    SELECT doc_id, source, string_split_regex(trim(text), '\s+') AS toks
    FROM documents WHERE length(trim(text)) > 0
),
sh AS (
    SELECT doc_id, source,
           list_distinct(CASE WHEN len(toks) >= 3
                THEN [toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]
                      for i in generate_series(1, len(toks)-2)]
                ELSE [array_to_string(toks, ' ')] END) AS s
    FROM d
)
"""

# DuckDB recomputation of the 64-bit SimHash: md5_number_upper(token) is
# bit-identical to the engine's little-endian-first-8-bytes-of-md5 token
# hash; per-bit majority vote, bit_or-packed, pairs via bit_count(xor()).
_SIMHASH_SQL = r"""
WITH tok AS (
    SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS t
    FROM documents WHERE length(trim(text)) > 0
),
th AS (SELECT doc_id, md5_number_upper(t) AS h FROM tok),
bits AS (
    SELECT doc_id, b.b AS b,
           CASE WHEN 2*sum(CAST((h >> b.b) & 1 AS BIGINT)) > count(*)
                THEN CASE WHEN b.b = 63 THEN CAST(9223372036854775808 AS UBIGINT)
                          ELSE CAST(1 AS UBIGINT) << b.b END
                ELSE CAST(0 AS UBIGINT) END AS bitval
    FROM th CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) b
    GROUP BY doc_id, b.b
),
sig AS (SELECT doc_id, bit_or(bitval) AS s FROM bits GROUP BY doc_id)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.s, b.s)) AS BIGINT) AS hamming
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.s, b.s)) <= 3
"""

_DOMAIN_REGEX_SQL = "^[a-zA-Z][a-zA-Z0-9+.-]*://([^/]+)"

# Shared by knn_brute_force and the ann_ivf_exhaustive invariant (IVF with
# every partition probed must hash-match exact top-k).
_KNN_SQL = """
    SELECT query_id, neighbor_id, rank FROM (
        SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
               row_number() OVER (
                   PARTITION BY q.vec_id
                   ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                            e.vec_id
               ) AS rank
        FROM (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 10) q,
             embeddings e
        WHERE e.vec_id <> q.vec_id
    ) WHERE rank <= 5
"""


def _token_count_bpe_sql() -> str:
    """DuckDB recomputation of token_count_bpe including GENUINE BPE merge
    application: a recursive CTE rewrites each distinct word's
    space-separated symbol string by replacing the FIRST occurrence of the
    LOWEST-rank applicable merge until none applies — equivalent to the
    engine's rank-order greedy loop (a merge's output symbol only feeds
    later-rank pairs, and regexp_replace without 'g' is leftmost-only, so
    no symbol-boundary or run-sharing ambiguity arises). Symbols carry a
    leading AND trailing separator; subtoken count = separators - 1."""
    import re as _re

    from yomitoku_ray.functions.bpe import DEFAULT_MERGES

    def q(s: str) -> str:
        return s.replace("'", "''")

    rows = ", ".join(
        "({}, ' {} {} ', ' {} {} ', ' {}{} ')".format(
            rank,
            q(a), q(b),
            q(_re.escape(a)), q(_re.escape(b)),
            q(a), q(b),
        )
        for rank, (a, b) in enumerate(DEFAULT_MERGES)
    )
    return rf"""
        WITH RECURSIVE wd AS (
            SELECT doc_id,
                   unnest(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+')) AS w
            FROM documents
        ),
        uw AS (SELECT DISTINCT w FROM wd),
        m(rank, pat, rx, rep) AS (VALUES {rows}),
        st AS (
            SELECT w, regexp_replace(w, '(.)', ' \1', 'g') || ' ' AS s
            FROM uw
          UNION ALL
            SELECT w,
                   regexp_replace(
                       s,
                       (SELECT rx FROM m WHERE strpos(s, pat) > 0
                        ORDER BY rank LIMIT 1),
                       (SELECT rep FROM m WHERE strpos(s, pat) > 0
                        ORDER BY rank LIMIT 1)
                   ) AS s
            FROM st
            WHERE EXISTS (SELECT 1 FROM m WHERE strpos(s, pat) > 0)
        ),
        fin AS (
            SELECT w, s FROM st
            WHERE NOT EXISTS (SELECT 1 FROM m WHERE strpos(s, pat) > 0)
        ),
        cnt AS (SELECT w, CAST(length(s) - length(replace(s, ' ', '')) - 1 AS BIGINT) AS nt
                FROM fin),
        per_doc AS (
            SELECT wd.doc_id, CAST(SUM(cnt.nt) AS BIGINT) AS n_sub
            FROM wd JOIN cnt ON cnt.w = wd.w GROUP BY wd.doc_id
        )
        SELECT d.doc_id,
               CASE WHEN length(trim(text)) = 0 THEN 0
                    ELSE len(string_split_regex(trim(text), '\s+')) END AS n_ws_tokens,
               len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+')) AS n_bpe_tokens,
               COALESCE(p.n_sub, 0) AS n_bpe_subtokens
        FROM documents d LEFT JOIN per_doc p ON p.doc_id = d.doc_id
    """


def _ann_lsh_stats_sql() -> str:
    """DuckDB recomputation of ann_lsh_stats: the index's hyperplanes are
    CONSTANTS (RandomState(11), dim 64 = the testdata embedding dim), so
    they embed as exact float literals; sign(dot(v, plane)) is
    normalization-invariant, so buckets come straight from the raw
    embedding lists; the multiprobe neighborhood is the constant XOR-mask
    set. repr() literals round-trip to the identical float64."""
    from yomitoku_ray.functions.similarity import _lsh_probe_masks, lsh_planes

    planes = lsh_planes(64, 6, 11)
    bucket_expr = " + ".join(
        "(CASE WHEN list_dot_product(embedding, [{}]) > 0 THEN {} ELSE 0 END)".format(
            ", ".join(repr(float(x)) for x in planes[:, i]), 1 << i
        )
        for i in range(6)
    )
    masks = ", ".join(f"({m})" for m in _lsh_probe_masks(6, 2))
    return f"""
        WITH v AS (SELECT vec_id, ({bucket_expr}) AS bucket FROM embeddings),
        q AS (SELECT vec_id AS query_id, bucket AS qb FROM v WHERE vec_id < 10),
        m(mask) AS (VALUES {masks}),
        probes AS (SELECT query_id, xor(qb, mask) AS pb FROM q, m),
        cnt AS (SELECT bucket, COUNT(*) AS n FROM v GROUP BY bucket)
        SELECT p.query_id,
               COUNT(*) AS n_probed,
               CAST(COALESCE(SUM(cnt.n), 0) AS BIGINT) AS n_candidates
        FROM probes p LEFT JOIN cnt ON cnt.bucket = p.pb
        GROUP BY p.query_id
    """


# DuckDB recomputation of ann_ivf_stats: centroids = per-label per-dim AVG
# of the raw embeddings (float64; assignment/probing are norm-invariant, so
# skipping the vector normalization is exact), nearest-centroid assignment
# and nprobe=6 probing via ROW_NUMBER over (score DESC, label ASC) — the
# same tie order as numpy argmax/argsort over label-sorted centroids.
_ANN_IVF_STATS_SQL = """
    WITH dims AS (
        SELECT e.vec_id, e.label, i.i AS i, CAST(e.embedding[i.i] AS DOUBLE) AS val
        FROM embeddings e, (SELECT unnest(range(1, 65)) AS i) i
    ),
    cent AS (SELECT label, i, AVG(val) AS c FROM dims GROUP BY label, i),
    nrm AS (SELECT label, SQRT(SUM(c * c)) AS nr FROM cent GROUP BY label),
    dots AS (
        SELECT d.vec_id, c.label, SUM(d.val * c.c) AS dot
        FROM dims d JOIN cent c ON c.i = d.i
        GROUP BY d.vec_id, c.label
    ),
    sc AS (
        SELECT dots.vec_id, dots.label, dots.dot / nrm.nr AS s,
               ROW_NUMBER() OVER (
                   PARTITION BY dots.vec_id ORDER BY dots.dot / nrm.nr DESC,
                   dots.label ASC
               ) AS rn
        FROM dots JOIN nrm ON nrm.label = dots.label
    ),
    csize AS (SELECT label, COUNT(*) AS n FROM sc WHERE rn = 1 GROUP BY label),
    probes AS (SELECT vec_id AS query_id, label FROM sc
               WHERE rn <= 6 AND vec_id < 10)
    SELECT p.query_id, COUNT(*) AS n_probed,
           CAST(COALESCE(SUM(csize.n), 0) AS BIGINT) AS n_candidates
    FROM probes p LEFT JOIN csize ON csize.label = p.label
    GROUP BY p.query_id
"""


def _pages_glob_sf001() -> str:
    """Pages-parquet glob for the driver's sf0.01 oracle runs.

    The pages table is engine-synthesized (testdata ships none); ensuring it
    here lets the DuckDB oracle read the exact same deterministic input via
    read_parquet. Generation is a no-op when cached and needs no Ray session.
    """
    from yomitoku_ray.synth.pages import ensure_pages_parquet

    return ensure_pages_parquet("/root/testdata/sf0.01") + "/*.parquet"


_DSIR_WEIGHTS_SQL = r"""
            WITH tb AS (
                SELECT doc_id, lang,
                       md5_number_upper(t) % 1024 AS b
                FROM (
                    SELECT doc_id, lang,
                           unnest(string_split_regex(trim(text), '\s+')) AS t
                    FROM documents WHERE length(trim(text)) > 0
                )
            ),
            cnt AS (
                SELECT b,
                       sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS t_cnt,
                       count(*) AS r_cnt
                FROM tb GROUP BY b
            ),
            tot AS (SELECT sum(t_cnt) AS tt, sum(r_cnt) AS rr FROM cnt),
            sc AS (
                SELECT b,
                       CAST(floor(1000000.0 * (
                            ln((t_cnt + 1.0) / (tt + 1024.0))
                          - ln((r_cnt + 1.0) / (rr + 1024.0)))) AS BIGINT) AS s
                FROM cnt, tot
            )
            SELECT tb.doc_id,
                   count(*) AS n_tokens,
                   CAST(sum(sc.s) AS BIGINT) AS weight_scaled
            FROM tb JOIN sc USING (b)
            GROUP BY tb.doc_id
        """


_CCNET_PPL_SQL = r"""
            WITH toks AS (
                SELECT doc_id, lang, source,
                       string_split_regex(trim(text), '\s+') AS ts
                FROM documents WHERE length(trim(text)) > 0
            ),
            tr AS (
                SELECT lang,
                       md5_number_upper(ts[i]) % 256 AS b1,
                       md5_number_upper(ts[i + 1]) % 256 AS b2
                FROM (SELECT lang, ts,
                             unnest(generate_series(1, len(ts) - 1)) AS i
                      FROM toks WHERE source = 'src0')
            ),
            cnt AS (SELECT lang, b1, b2, count(*) AS c
                    FROM tr GROUP BY lang, b1, b2),
            ctx AS (SELECT lang, b1, sum(c) AS n FROM cnt GROUP BY lang, b1),
            -- the ONLY float seam: the same floor(scale * ln(.)) freeze the
            -- Ray side applies (margins verified far from floor boundaries)
            sc AS (
                SELECT cnt.lang, cnt.b1, cnt.b2,
                       CAST(floor(1000000.0 * ln((cnt.c + 1.0) / (ctx.n + 256.0)))
                            AS BIGINT) AS s
                FROM cnt JOIN ctx USING (lang, b1)
            ),
            doc_tr AS (
                SELECT doc_id, lang,
                       md5_number_upper(ts[i]) % 256 AS b1,
                       md5_number_upper(ts[i + 1]) % 256 AS b2
                FROM (SELECT doc_id, lang, ts,
                             unnest(generate_series(1, len(ts) - 1)) AS i
                      FROM toks)
            ),
            doc_s AS (
                SELECT d.doc_id, d.lang,
                       coalesce(sc.s,
                                CAST(floor(1000000.0 *
                                           ln(1.0 / (coalesce(ctx.n, 0) + 256.0)))
                                     AS BIGINT)) AS s
                FROM doc_tr d
                LEFT JOIN sc ON sc.lang = d.lang AND sc.b1 = d.b1
                            AND sc.b2 = d.b2
                LEFT JOIN ctx ON ctx.lang = d.lang AND ctx.b1 = d.b1
            ),
            docs AS (
                SELECT doc_id, lang, count(*) AS n_trans,
                       CAST(-sum(s) AS BIGINT) AS nll_scaled
                FROM doc_s GROUP BY doc_id, lang
            ),
            qd AS (SELECT *, nll_scaled // (n_trans * 1000) AS ppl_q FROM docs),
            ranked AS (
                SELECT lang, ppl_q,
                       row_number() OVER (PARTITION BY lang ORDER BY ppl_q) AS rn,
                       count(*) OVER (PARTITION BY lang) AS n
                FROM qd
            ),
            -- type-1 terciles: value at rank ceil(n/3) / ceil(2n/3)
            thr AS (
                SELECT lang,
                       max(CASE WHEN rn = (n + 2) // 3 THEN ppl_q END) AS t1,
                       max(CASE WHEN rn = (2 * n + 2) // 3 THEN ppl_q END) AS t2
                FROM ranked GROUP BY lang
            )
            SELECT qd.doc_id, qd.lang, qd.n_trans, qd.nll_scaled,
                   CAST(CASE WHEN qd.ppl_q <= thr.t1 THEN 0
                             WHEN qd.ppl_q <= thr.t2 THEN 1
                             ELSE 2 END AS BIGINT) AS ppl_bucket
            FROM qd JOIN thr USING (lang)
"""


_NB_LANGID_SQL = r"""
            WITH toks AS (
                SELECT doc_id, lang, source,
                       unnest(string_split_regex(trim(text), '\s+')) AS t
                FROM documents WHERE length(trim(text)) > 0
            ),
            tb AS (SELECT doc_id, lang, source,
                          md5_number_upper(t) % 1024 AS b FROM toks),
            ccnt AS (
                SELECT lang AS cls, b, count(*) AS c
                FROM tb WHERE source = 'src0' GROUP BY lang, b
            ),
            ctot AS (SELECT cls, sum(c) AS tot FROM ccnt GROUP BY cls),
            dcnt AS (
                SELECT lang AS cls, count(*) AS nd
                FROM documents WHERE source = 'src0' GROUP BY lang
            ),
            ntot AS (SELECT sum(nd) AS n FROM dcnt),
            -- the ONLY float seams: identical floor(scale * ln(.)) freezes
            -- to the Ray side (margins pytest-verified)
            pri AS (
                SELECT cls, CAST(floor(1000000.0 * ln(nd / n)) AS BIGINT) AS p
                FROM dcnt, ntot
            ),
            sc AS (
                SELECT ccnt.cls, ccnt.b,
                       CAST(floor(1000000.0 *
                                  ln((ccnt.c + 1.0) / (ctot.tot + 1024.0)))
                            AS BIGINT) AS s
                FROM ccnt JOIN ctot USING (cls)
            ),
            db AS (SELECT doc_id, lang, b, count(*) AS c
                   FROM tb GROUP BY doc_id, lang, b),
            scored AS (
                SELECT db.doc_id, db.lang AS actual, ctot.cls,
                       pri.p + sum(db.c * coalesce(sc.s,
                           CAST(floor(1000000.0 *
                                      ln(1.0 / (ctot.tot + 1024.0)))
                                AS BIGINT))) AS score
                FROM db
                CROSS JOIN ctot
                JOIN pri ON pri.cls = ctot.cls
                LEFT JOIN sc ON sc.cls = ctot.cls AND sc.b = db.b
                GROUP BY db.doc_id, db.lang, ctot.cls, pri.p
            ),
            best AS (
                SELECT doc_id, actual, cls,
                       row_number() OVER (
                           PARTITION BY doc_id
                           ORDER BY score DESC, cls ASC
                       ) AS rn
                FROM scored
            )
            SELECT b.doc_id, dn.n_tokens, b.cls AS pred, b.actual,
                   CAST(CASE WHEN b.cls = b.actual THEN 1 ELSE 0 END
                        AS BIGINT) AS correct
            FROM best b
            JOIN (SELECT doc_id, count(*) AS n_tokens
                  FROM tb GROUP BY doc_id) dn USING (doc_id)
            WHERE b.rn = 1
"""


_HLL_SQL = r"""
            WITH toks AS (
                SELECT lang,
                       unnest(string_split_regex(trim(text), '\s+')) AS t
                FROM documents WHERE length(trim(text)) > 0
            ),
            th AS (SELECT DISTINCT lang, md5_number_upper(t) AS h FROM toks),
            r0 AS (SELECT lang, CAST(h % 1024 AS BIGINT) AS idx,
                          h // 1024 AS w FROM th),
            reg AS (
                SELECT lang, idx,
                       max(CASE WHEN w = 0 THEN 55
                                ELSE 55 - length(bin(w)) END) AS rho
                FROM r0 GROUP BY lang, idx
            ),
            agg AS (
                SELECT lang,
                       sum(1::HUGEINT << (55 - rho))
                         + (1024 - count(*))::HUGEINT * (1::HUGEINT << 55)
                         AS sum_pow,
                       1024 - count(*) AS v
                FROM reg GROUP BY lang
            ),
            est AS (
                SELECT lang, v,
                       CASE WHEN raw <= 2560 AND v > 0
                            THEN (1024 * CAST(floor(1000000.0 * ln(1024.0 / v))
                                              AS BIGINT)) // 1000000
                            ELSE raw END AS e
                FROM (SELECT lang, v,
                             CAST((720541::HUGEINT * 1024 * 1024 *
                                   (1::HUGEINT << 55))
                                  // (sum_pow * 1000000::HUGEINT)
                                  AS BIGINT) AS raw
                      FROM agg)
            )
            SELECT lang, CAST(v AS BIGINT) AS v_zeros,
                   CAST(e AS BIGINT) AS est_distinct
            FROM est
"""


def _pq_lloyd_cte(lo: int, hi: int, p: str) -> str:
    """One sliced 2-iteration Lloyd chain for the PQ oracle (the
    kmeans_assign SQL over the embedding subspace [lo:hi), 0-based;
    DuckDB list slices are 1-based inclusive)."""
    sl = f"embedding[{lo + 1}:{hi}]"
    return f"""
            {p}c0 AS (SELECT vec_id AS cl, {sl} AS c
                      FROM embeddings WHERE vec_id < 8),
            {p}a1 AS (
                SELECT vec_id, cl FROM (
                    SELECT e.vec_id, {p}c0.cl,
                           row_number() OVER (PARTITION BY e.vec_id
                               ORDER BY list_distance(e.{sl}, {p}c0.c),
                                        {p}c0.cl) AS rn
                    FROM embeddings e, {p}c0
                ) WHERE rn = 1
            ),
            {p}dims AS (
                SELECT {p}a1.cl, generate_subscripts(e.{sl}, 1) AS dim,
                       unnest(e.{sl}) AS val
                FROM embeddings e JOIN {p}a1 USING (vec_id)
            ),
            {p}c1 AS (
                SELECT cl, list(avg_val ORDER BY dim) AS c FROM (
                    SELECT cl, dim, avg(val) AS avg_val
                    FROM {p}dims GROUP BY cl, dim
                ) GROUP BY cl
            ),
            {p}a2 AS (
                SELECT vec_id, cl FROM (
                    SELECT e.vec_id, {p}c1.cl,
                           row_number() OVER (PARTITION BY e.vec_id
                               ORDER BY list_distance(e.{sl}, {p}c1.c),
                                        {p}c1.cl) AS rn
                    FROM embeddings e, {p}c1
                ) WHERE rn = 1
            )"""


_PQ_CODES_SQL = (
    "WITH "
    + _pq_lloyd_cte(0, 32, "s0")
    + ","
    + _pq_lloyd_cte(32, 64, "s1")
    + """
            SELECT a.vec_id, CAST(a.cl AS BIGINT) AS code_0,
                   CAST(b.cl AS BIGINT) AS code_1
            FROM s0a2 a JOIN s1a2 b USING (vec_id)
"""
)


_ANN_PQ_SQL = (
    "WITH "
    + _pq_lloyd_cte(0, 32, "s0")
    + ","
    + _pq_lloyd_cte(32, 64, "s1")
    + """,
            q AS (SELECT vec_id AS qid, embedding AS qe
                  FROM embeddings WHERE vec_id < 10),
            -- ADC: squared distance from the query SUBVECTOR to the
            -- final centroid of each vector's code, summed over subspaces
            d AS (
                SELECT q.qid, v.vec_id AS nid,
                       power(list_distance(q.qe[1:32], c0s.c), 2)
                     + power(list_distance(q.qe[33:64], c1s.c), 2) AS dist
                FROM q, embeddings v
                JOIN s0a2 ON s0a2.vec_id = v.vec_id
                JOIN s0c1 c0s ON c0s.cl = s0a2.cl
                JOIN s1a2 ON s1a2.vec_id = v.vec_id
                JOIN s1c1 c1s ON c1s.cl = s1a2.cl
                WHERE v.vec_id != q.qid
            ),
            ranked AS (
                SELECT qid, nid,
                       row_number() OVER (
                           PARTITION BY qid ORDER BY dist, nid) AS r
                FROM d
            )
            SELECT qid AS query_id, nid AS neighbor_id,
                   CAST(r AS BIGINT) AS rank
            FROM ranked WHERE r <= 5
"""
)


_SEMDEDUP_LLOYD_CTE = """
            WITH nrm AS (
                SELECT vec_id,
                       sqrt(list_sum(list_transform(embedding, x -> x * x))) AS n
                FROM embeddings
            ),
            en AS (
                SELECT e.vec_id,
                       list_transform(e.embedding, x -> x / nrm.n) AS emb
                FROM embeddings e JOIN nrm USING (vec_id)
            ),
            c0 AS (
                SELECT vec_id AS cl, emb AS c FROM en WHERE vec_id < 8
            ),
            -- assignment ranks by EUCLIDEAN distance of NORMALIZED vectors
            -- (the numpy form); after the Lloyd update the centroids are
            -- means of unit vectors (norm < 1), so a cosine ranking would
            -- NOT be equivalent there.
            a1 AS (
                SELECT vec_id, cl FROM (
                    SELECT en.vec_id, c0.cl,
                           row_number() OVER (
                               PARTITION BY en.vec_id
                               ORDER BY list_distance(en.emb, c0.c), c0.cl
                           ) AS rn
                    FROM en, c0
                ) WHERE rn = 1
            ),
            dims AS (
                SELECT a1.cl,
                       generate_subscripts(en.emb, 1) AS dim,
                       unnest(en.emb) AS val
                FROM en JOIN a1 USING (vec_id)
            ),
            c1 AS (
                SELECT cl, list(avg_val ORDER BY dim) AS c FROM (
                    SELECT cl, dim, avg(val) AS avg_val FROM dims GROUP BY cl, dim
                ) GROUP BY cl
            ),
            a2 AS (
                SELECT vec_id, cl FROM (
                    SELECT en.vec_id, c1.cl,
                           row_number() OVER (
                               PARTITION BY en.vec_id
                               ORDER BY list_distance(en.emb, c1.c), c1.cl
                           ) AS rn
                    FROM en, c1
                ) WHERE rn = 1
            )"""


_SEMDEDUP_TAIL = """
            SELECT a2.vec_id,
                   CAST(a2.cl AS BIGINT) AS cluster,
                   CAST(CASE WHEN dup.vec_id IS NOT NULL THEN 1 ELSE 0 END
                        AS BIGINT) AS is_dup
            FROM a2 LEFT JOIN dup USING (vec_id)
"""


_DSIR_BIGRAM_SQL = r"""
            WITH toks AS (
                SELECT doc_id, lang,
                       string_split_regex(trim(text), '\s+') AS ts
                FROM documents WHERE length(trim(text)) > 0
            ),
            feats AS (
                SELECT doc_id, lang, unnest(ts) AS f FROM toks
                UNION ALL
                SELECT doc_id, lang,
                       unnest([ts[i] || ' ' || ts[i + 1]
                               for i in generate_series(1, len(ts) - 1)]) AS f
                FROM toks
            ),
            tb AS (
                SELECT doc_id, lang, md5_number_upper(f) % 1024 AS b FROM feats
            ),
            cnt AS (
                SELECT b,
                       sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS t_cnt,
                       count(*) AS r_cnt
                FROM tb GROUP BY b
            ),
            tot AS (SELECT sum(t_cnt) AS tt, sum(r_cnt) AS rr FROM cnt),
            sc AS (
                SELECT b,
                       CAST(floor(1000000.0 * (
                            ln((t_cnt + 1.0) / (tt + 1024.0))
                          - ln((r_cnt + 1.0) / (rr + 1024.0)))) AS BIGINT) AS s
                FROM cnt, tot
            )
            SELECT tb.doc_id,
                   count(*) AS n_feats,
                   CAST(sum(sc.s) AS BIGINT) AS weight_scaled
            FROM tb JOIN sc USING (b)
            GROUP BY tb.doc_id
"""


def oracle_sql() -> dict[str, str]:
    base_cents = _CENTS.format(col="l_extendedprice")
    disc_pct = _CENTS.format(col="l_discount")
    pages = _pages_glob_sf001()
    return {
        "minhash_lsh_pairs": _SHINGLES_CTE
        + """
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST((100 * len(list_intersect(a.s, b.s)))
                        // (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) AS BIGINT) AS jaccard_pct
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE 100 * len(list_intersect(a.s, b.s))
                  >= 50 * (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
        """,
        "dup_components": _SHINGLES_CTE.replace("WITH d AS", "WITH RECURSIVE d AS")
        + """
        , pairs AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE 100 * len(list_intersect(a.s, b.s))
                  >= 50 * (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
        ),
        edges AS (
            SELECT doc_a AS u, doc_b AS v FROM pairs
            UNION ALL SELECT doc_b, doc_a FROM pairs
        ),
        reach(node, r) AS (
            SELECT u, u FROM edges
            UNION
            SELECT e.v, reach.r FROM reach JOIN edges e ON e.u = reach.node
        )
        SELECT node AS doc_id, CAST(min(r) AS BIGINT) AS component
        FROM reach GROUP BY node
        """,
        "corpus_split": """
            SELECT source,
                   CASE WHEN md5_number_upper(CAST(doc_id AS VARCHAR)) % 100 < 10
                        THEN 'test'
                        WHEN md5_number_upper(CAST(doc_id AS VARCHAR)) % 100 < 20
                        THEN 'val' ELSE 'train' END AS split,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(length(text)) AS BIGINT) AS n_chars
            FROM documents
            GROUP BY source, split
        """,
        "streaming_dedup_count": """
            SELECT CAST(count(DISTINCT text) AS BIGINT) AS n_unique,
                   CAST(count(*) AS BIGINT) AS n_total,
                   CAST(count(*) - count(DISTINCT text) AS BIGINT) AS n_dropped
            FROM documents
        """,
        "shuffle_rank": """
            SELECT doc_id,
                   CAST(row_number() OVER (
                       ORDER BY md5_number_upper(CAST(doc_id AS VARCHAR)), doc_id
                   ) - 1 AS BIGINT) AS rank
            FROM documents
        """,
        "corpus_sample": """
            SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars
            FROM documents
            WHERE md5_number_upper(CAST(doc_id AS VARCHAR)) % 20 = 0
        """,
        "cross_corpus_near_dup": _SHINGLES_CTE
        + """
            , pr AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                       CAST((100 * len(list_intersect(a.s, b.s)))
                            // (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
                            AS BIGINT) AS jaccard_pct,
                       md5_number_upper(CAST(a.doc_id AS VARCHAR)) % 5 = 0 AS new_a,
                       md5_number_upper(CAST(b.doc_id AS VARCHAR)) % 5 = 0 AS new_b
                FROM sh a JOIN sh b ON a.doc_id < b.doc_id
                WHERE 100 * len(list_intersect(a.s, b.s))
                      >= 50 * (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
            )
            SELECT CASE WHEN new_a THEN doc_b ELSE doc_a END AS doc_old,
                   CASE WHEN new_a THEN doc_a ELSE doc_b END AS doc_new,
                   jaccard_pct
            FROM pr WHERE new_a <> new_b
        """,
        "dup_ngram_spans": r"""
            WITH d AS (
                SELECT doc_id, string_split_regex(trim(text), '\s+') AS toks
                FROM documents WHERE length(trim(text)) > 0
            ),
            win AS (
                SELECT doc_id, pos, array_to_string(toks[pos:pos+4], ' ') AS g
                FROM (SELECT doc_id, toks,
                             unnest(generate_series(1, len(toks) - 4)) AS pos
                      FROM d)
            ),
            c AS (SELECT g, count(*) AS cnt FROM win GROUP BY 1),
            occ AS (SELECT doc_id, pos, cnt >= 2 AS dup FROM win JOIN c USING (g)),
            per AS (
                SELECT doc_id, CAST(count(*) AS BIGINT) AS n_windows,
                       CAST(sum(CASE WHEN dup THEN 1 ELSE 0 END) AS BIGINT)
                           AS n_dup_windows
                FROM occ GROUP BY 1
            ),
            cov AS (
                SELECT doc_id,
                       CAST(count(DISTINCT pos + k) AS BIGINT) AS n_dup_positions
                FROM (SELECT doc_id, pos, unnest(generate_series(0, 4)) AS k
                      FROM occ WHERE dup)
                GROUP BY 1
            )
            SELECT documents.doc_id,
                   CAST(coalesce(n_windows, 0) AS BIGINT) AS n_windows,
                   CAST(coalesce(n_dup_windows, 0) AS BIGINT) AS n_dup_windows,
                   CAST(coalesce(n_dup_positions, 0) AS BIGINT) AS n_dup_positions
            FROM documents
            LEFT JOIN per USING (doc_id) LEFT JOIN cov USING (doc_id)
        """,
        "substring_dedup_rollup": r"""
            WITH d AS (
                SELECT doc_id, string_split_regex(trim(text), '\s+') AS toks
                FROM documents WHERE length(trim(text)) > 0
            ),
            win AS (
                SELECT doc_id, pos, array_to_string(toks[pos:pos+4], ' ') AS g
                FROM (SELECT doc_id, toks,
                             unnest(generate_series(1, len(toks) - 4)) AS pos
                      FROM d)
            ),
            c AS (SELECT g, count(*) AS cnt FROM win GROUP BY 1),
            occ AS (SELECT doc_id, pos, cnt >= 2 AS dup FROM win JOIN c USING (g)),
            cov AS (
                SELECT doc_id,
                       CAST(count(DISTINCT pos + k) AS BIGINT) AS n_dup_positions
                FROM (SELECT doc_id, pos, unnest(generate_series(0, 4)) AS k
                      FROM occ WHERE dup)
                GROUP BY 1
            ),
            tl AS (
                SELECT doc_id, source,
                       CAST(CASE WHEN length(trim(text)) = 0 THEN 0
                            ELSE len(string_split_regex(trim(text), '\s+'))
                            END AS BIGINT) AS n_tokens
                FROM documents
            )
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_tokens) AS BIGINT) AS n_tokens,
                   CAST(sum(coalesce(n_dup_positions, 0)) AS BIGINT) AS n_dup_tokens,
                   CAST(sum(n_tokens) - sum(coalesce(n_dup_positions, 0)) AS BIGINT)
                       AS kept_tokens
            FROM tl LEFT JOIN cov USING (doc_id)
            GROUP BY 1 ORDER BY 1
        """,
        "source_mix_weights": r"""
            WITH s AS (
                SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                       CAST(sum(len(string_split_regex(trim(text), '\s+')))
                            AS BIGINT) AS n_tokens
                FROM documents GROUP BY 1
            ),
            q AS (
                SELECT source, n_docs, n_tokens,
                       CAST(floor(sqrt(CAST(n_tokens AS DOUBLE))) AS BIGINT) AS isq
                FROM s
            )
            SELECT source, n_docs, n_tokens,
                   CAST((1000000 * isq) // (SELECT sum(isq) FROM q) AS BIGINT)
                       AS weight_ppm
            FROM q ORDER BY source
        """,
        "term_cooccurrence": r"""
            WITH d AS (
                SELECT doc_id, string_split_regex(trim(text), '\s+') AS toks
                FROM documents WHERE length(trim(text)) > 0
            ),
            tok AS (
                SELECT doc_id, unnest(toks) AS w,
                       generate_subscripts(toks, 1) AS pos
                FROM d
            ),
            pr AS (
                SELECT least(a.w, b.w) AS wa, greatest(a.w, b.w) AS wb
                FROM tok a JOIN tok b
                  ON a.doc_id = b.doc_id AND b.pos > a.pos AND b.pos <= a.pos + 4
            )
            SELECT wa, wb, CAST(count(*) AS BIGINT) AS n
            FROM pr GROUP BY 1, 2
            ORDER BY n DESC, wa, wb
            LIMIT 20
        """,
        "dedup_corpus": _SHINGLES_CTE.replace("WITH d AS", "WITH RECURSIVE d AS")
        + """
        , pairs AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
            FROM sh a JOIN sh b ON a.doc_id < b.doc_id
            WHERE 100 * len(list_intersect(a.s, b.s))
                  >= 50 * (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
        ),
        edges AS (
            SELECT doc_a AS u, doc_b AS v FROM pairs
            UNION ALL SELECT doc_b, doc_a FROM pairs
        ),
        reach(node, r) AS (
            SELECT u, u FROM edges
            UNION
            SELECT e.v, reach.r FROM reach JOIN edges e ON e.u = reach.node
        ),
        comp AS (SELECT node, min(r) AS component FROM reach GROUP BY node),
        drops AS (SELECT node FROM comp WHERE node <> component)
        SELECT source,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(CASE WHEN dr.node IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
               CAST(sum(CASE WHEN dr.node IS NULL THEN n_chars ELSE 0 END) AS BIGINT) AS kept_chars
        FROM documents LEFT JOIN drops dr ON documents.doc_id = dr.node
        GROUP BY 1
        """,
        "gopher_repetition": r"""
            WITH d AS (
                SELECT doc_id, string_split_regex(trim(text), '\s+') AS toks
                FROM documents WHERE length(trim(text)) > 0
            ),
            tok AS (
                SELECT doc_id, unnest(toks) AS w,
                       generate_subscripts(toks, 1) AS pos
                FROM d
            ),
            wc AS (SELECT doc_id, w, count(*) AS c FROM tok GROUP BY 1, 2),
            ws AS (
                SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_words,
                       CAST(count(*) AS BIGINT) AS n_distinct,
                       CAST(max(c) AS BIGINT) AS top_word_n
                FROM wc GROUP BY 1
            ),
            bg AS (
                SELECT doc_id,
                       w || ' ' || lead(w) OVER (PARTITION BY doc_id ORDER BY pos) AS g
                FROM tok QUALIFY g IS NOT NULL
            ),
            bs AS (
                SELECT doc_id, CAST(count(*) AS BIGINT) AS n_2grams,
                       CAST(count(DISTINCT g) AS BIGINT) AS n_distinct_2grams
                FROM bg GROUP BY 1
            )
            SELECT ws.doc_id, n_words, n_distinct, top_word_n,
                   CAST(coalesce(n_2grams, 0) AS BIGINT) AS n_2grams,
                   CAST(coalesce(n_distinct_2grams, 0) AS BIGINT) AS n_distinct_2grams,
                   CAST(CASE WHEN 100 * top_word_n <= 10 * n_words
                              AND 100 * (coalesce(n_2grams, 0) - coalesce(n_distinct_2grams, 0))
                                  <= 50 * coalesce(n_2grams, 0)
                        THEN 1 ELSE 0 END AS BIGINT) AS keep
            FROM ws LEFT JOIN bs ON ws.doc_id = bs.doc_id
        """,
        "contamination_check": _SHINGLES_CTE
        + """
            , ev AS (
                SELECT DISTINCT unnest(s) AS g
                FROM sh
                WHERE md5_number_upper(CAST(doc_id AS VARCHAR)) % 20 = 0
            ),
            tr AS (
                SELECT doc_id, unnest(s) AS g
                FROM sh
                WHERE md5_number_upper(CAST(doc_id AS VARCHAR)) % 20 <> 0
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_shared
            FROM tr JOIN ev USING (g)
            GROUP BY 1
        """,
        "pack_sequences": r"""
            WITH t AS (
                SELECT doc_id,
                       len(string_split_regex(trim(text), '\s+')) AS n_tokens
                FROM documents
            ),
            o AS (
                SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                       CAST(coalesce(sum(n_tokens) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ), 0) AS BIGINT) AS tok_offset
                FROM t
            )
            SELECT doc_id, n_tokens, tok_offset,
                   tok_offset // 1024 AS seq_id,
                   CAST(CASE WHEN (tok_offset + n_tokens - 1) // 1024
                                  <> tok_offset // 1024
                        THEN 1 ELSE 0 END AS BIGINT) AS spans_boundary
            FROM o
        """,
        "quality_topk": f"""
            WITH s AS (
                SELECT source, doc_id,
                       len(regexp_extract_all(lower(text), '{_STOP_SQL}')) AS n_stop
                FROM documents
            ),
            r AS (
                SELECT source, doc_id, CAST(n_stop AS BIGINT) AS n_stop,
                       row_number() OVER (
                           PARTITION BY source ORDER BY n_stop DESC, doc_id
                       ) AS rk
                FROM s
            )
            SELECT source, doc_id, n_stop, CAST(rk AS BIGINT) AS rk
            FROM r WHERE rk <= 10
        """,
        "props_scrub": """
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(len(regexp_extract_all(props, '[0-9]+'))) AS BIGINT) AS n_matches,
                   CAST(sum(length(regexp_replace(props, '[0-9]+', '<NUM>', 'g'))) AS BIGINT) AS redacted_chars
            FROM events GROUP BY 1
        """,
        "ngram_jaccard_pairs": _SHINGLES_CTE
        + """
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST((100 * len(list_intersect(a.s, b.s)))
                        // (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) AS BIGINT) AS jaccard_pct
            FROM sh a JOIN sh b ON a.source = b.source AND a.doc_id < b.doc_id
            WHERE 100 * len(list_intersect(a.s, b.s))
                  >= 20 * (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
        """,
        "simhash_dup_pairs": _SIMHASH_SQL,
        "top_terms": r"""
            SELECT term, CAST(count(*) AS BIGINT) AS n FROM (
                SELECT unnest(string_split_regex(trim(text), '\s+')) AS term
                FROM documents WHERE length(trim(text)) > 0
            )
            GROUP BY term
            ORDER BY n DESC, term
            LIMIT 20
        """,
        # Type-1 percentile replicated exactly: smallest n_tokens whose
        # cumulative doc count >= ceil(p/100 * total).
        "doc_length_percentiles": r"""
            WITH lens AS (
                SELECT CASE WHEN length(trim(text)) = 0 THEN 0
                            ELSE len(string_split_regex(trim(text), '\s+')) END AS n_tokens
                FROM documents
            ),
            hist AS (
                SELECT n_tokens, count(*) AS cnt FROM lens GROUP BY n_tokens
            ),
            cum AS (
                SELECT n_tokens,
                       sum(cnt) OVER (ORDER BY n_tokens
                                      ROWS UNBOUNDED PRECEDING) AS c,
                       (SELECT sum(cnt) FROM hist) AS total
                FROM hist
            )
            SELECT p.pct, CAST(min(cum.n_tokens) AS BIGINT) AS n_tokens
            FROM (SELECT unnest([10, 25, 50, 75, 90, 99]) AS pct) p
            JOIN cum ON cum.c >= (p.pct * cum.total + 99) // 100
            GROUP BY p.pct
        """,
        "tfidf_top_terms": r"""
            WITH d AS (
                SELECT doc_id, string_split_regex(trim(text), '\s+') AS toks
                FROM documents WHERE length(trim(text)) > 0
            ),
            tok AS (SELECT doc_id, unnest(toks) AS term FROM d),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dfreq AS (SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1)
            SELECT doc_id, term, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df
            FROM tf JOIN dfreq USING (term)
            QUALIFY row_number() OVER (
                PARTITION BY doc_id
                ORDER BY CAST(tf AS DOUBLE) / df DESC, term
            ) = 1
        """,
        "source_length_percentiles": r"""
            WITH lens AS (
                SELECT source,
                       CASE WHEN length(trim(text)) = 0 THEN 0
                            ELSE len(string_split_regex(trim(text), '\s+')) END AS n_tokens
                FROM documents
            ),
            hist AS (
                SELECT source, n_tokens, count(*) AS cnt
                FROM lens GROUP BY source, n_tokens
            ),
            cum AS (
                SELECT source, n_tokens,
                       sum(cnt) OVER (PARTITION BY source ORDER BY n_tokens
                                      ROWS UNBOUNDED PRECEDING) AS c,
                       sum(cnt) OVER (PARTITION BY source) AS total
                FROM hist
            )
            SELECT cum.source, p.pct, CAST(min(cum.n_tokens) AS BIGINT) AS n_tokens
            FROM (SELECT unnest([10, 25, 50, 75, 90, 99]) AS pct) p
            JOIN cum ON cum.c >= (p.pct * cum.total + 99) // 100
            GROUP BY cum.source, p.pct
        """,
        "token_count_bpe": _token_count_bpe_sql(),
        # Winnowing fingerprints: window-minima over md5_number_upper token
        # hashes — the exact numbers the Ray kernel computes.
        "winnow_fingerprints": r"""
            WITH th AS (
                SELECT doc_id,
                       [md5_number_upper(t) for t in string_split_regex(trim(text), '\s+')] AS hs
                FROM documents WHERE length(trim(text)) > 0
            ),
            fp AS (
                SELECT doc_id,
                       list_distinct(CASE WHEN len(hs) >= 4
                            THEN [list_min(hs[i:i+3]) for i in generate_series(1, len(hs)-3)]
                            ELSE [list_min(hs)] END) AS fps
                FROM th
            )
            SELECT doc_id,
                   CAST(len(fps) AS BIGINT) AS n_fp,
                   CAST(list_sum(fps) % 2305843009213693951 AS BIGINT) AS fp_checksum
            FROM fp
        """,
        # DSIR: hashed-unigram two-model importance weights. The oracle
        # independently rebuilds both smoothed bucket models and the
        # integer fixed-point bucket scores; document weights are then
        # exact integer sums (order-independent on both engines). The only
        # float seam is ln() per bucket; verified >= 0.005 fractional
        # distance from every floor boundary at both sf legs.
        "dsir_weights": _DSIR_WEIGHTS_SQL,
        # uni+bigram feature set: same two-model integer fixed-point
        # posture; bigram strings are the shingle idiom (left || ' ' ||
        # right), floor margins re-verified at both sf legs
        "dsir_weights_bigram": _DSIR_BIGRAM_SQL,
        # CCNet perplexity buckets: per-lang bigram-bucket LM over the src0
        # reference slice; identical fixed-point freeze + integer terciles.
        "ccnet_perplexity": _CCNET_PPL_SQL,
        # CCNet selection: the perplexity CTE filtered to head+middle.
        "ccnet_head_middle": "SELECT * FROM ("
        + _CCNET_PPL_SQL
        + ") WHERE ppl_bucket <= 1",
        # Multinomial NB lang classifier: src0-trained, integer-exact argmax.
        "nb_langid": _NB_LANGID_SQL,
        # HyperLogLog sketch: same register math + integer estimator.
        "hll_distinct_tokens": _HLL_SQL,
        # Token entropy: identical fixed-point formulation per doc.
        "token_entropy": r"""
            WITH toks AS (
                SELECT doc_id,
                       unnest(string_split_regex(trim(text), '\s+')) AS t
                FROM documents WHERE length(trim(text)) > 0
            ),
            tc AS (SELECT doc_id, t, count(*) AS c FROM toks GROUP BY doc_id, t)
            SELECT doc_id,
                   CAST(sum(c) AS BIGINT) AS n_tokens,
                   CAST(count(*) AS BIGINT) AS n_distinct,
                   CAST(sum(c) * CAST(floor(1000000.0 * ln(sum(c))) AS BIGINT)
                        - sum(c * CAST(floor(1000000.0 * ln(c)) AS BIGINT))
                        AS BIGINT) AS ent_scaled
            FROM tc GROUP BY doc_id
        """,
        # Count-Min sketch: identical d x w counter build + min-over-rows.
        "cms_top_term_counts": r"""
            WITH toks AS (
                SELECT unnest(string_split_regex(trim(text), '\s+')) AS t
                FROM documents WHERE length(trim(text)) > 0
            ),
            tc AS (SELECT t, count(*) AS n FROM toks GROUP BY t),
            -- Kirsch-Mitzenmacher double hashing off ONE md5 per term:
            -- col_j = (h1 + j*h2) % w, h1 = h % 2^32, h2 = (h >> 32) | 1
            th AS (
                SELECT t, n,
                       md5_number_upper(t) % 4294967296 AS h1,
                       (md5_number_upper(t) // 4294967296) | 1 AS h2
                FROM tc
            ),
            cms AS (
                SELECT r.j, (th.h1 + r.j * th.h2) % 16384 AS col,
                       sum(th.n) AS cnt
                FROM th, range(0, 4) r(j)
                GROUP BY 1, 2
            ),
            topk AS (SELECT t, n, h1, h2
                     FROM th ORDER BY n DESC, t ASC LIMIT 20),
            probe AS (
                SELECT topk.t, topk.n, r.j,
                       (topk.h1 + r.j * topk.h2) % 16384 AS col
                FROM topk, range(0, 4) r(j)
            )
            SELECT probe.t AS term, CAST(probe.n AS BIGINT) AS n_exact,
                   CAST(min(cms.cnt) AS BIGINT) AS n_cms
            FROM probe JOIN cms ON cms.j = probe.j AND cms.col = probe.col
            GROUP BY probe.t, probe.n
        """,
        # DSIR top-k selection: integer rank over the same weight CTE
        "dsir_select": f"""
            WITH w AS ({_DSIR_WEIGHTS_SQL})
            SELECT CAST(row_number() OVER (
                       ORDER BY weight_scaled DESC, doc_id) AS BIGINT) AS rank,
                   doc_id, n_tokens, weight_scaled
            FROM w
            ORDER BY rank LIMIT 100
        """,
        # extract_match_rate: the Ray side live-compares the distributed
        # pipeline's full output (text/markdown/doc_json) against the
        # single-process oracle for a 200-page sample; the expected row is
        # a 100% byte-identity match, pinned here so any divergence
        # hash-mismatches the north-star metric.
        "extract_match_rate": """
            SELECT CAST(200 AS BIGINT) AS n_checked,
                   CAST(200 AS BIGINT) AS n_match,
                   CAST(100 AS BIGINT) AS match_rate_pct
        """,
        # semantic_match_rate: same posture for the semantic pipeline — the
        # Ray side live-compares the distributed SemanticExtractStage's
        # payloads against a single-process per-row recompute; the pinned
        # row means any divergence hash-mismatches.
        "semantic_match_rate": """
            SELECT CAST(200 AS BIGINT) AS n_checked,
                   CAST(200 AS BIGINT) AS n_match,
                   CAST(100 AS BIGINT) AS match_rate_pct
        """,
        # ann_recall: the Ray side measures recall@5 of the partitioned IVF
        # index against exact brute force and reports whether the stated
        # floor holds; the oracle pins the expected (floor, holds) row, so a
        # recall regression hash-mismatches.
        "ann_recall": """
            SELECT CAST(70 AS BIGINT) AS floor_pct,
                   CAST(1 AS BIGINT) AS meets_floor
        """,
        "domain_skew": f"""
            SELECT domain, n_pages FROM (
                SELECT CASE WHEN d = '' THEN 'unknown' ELSE d END AS domain,
                       count(*) AS n_pages
                FROM (SELECT regexp_extract(url, '{_DOMAIN_REGEX_SQL}', 1) AS d
                      FROM read_parquet('{pages}'))
                GROUP BY 1
            )
            ORDER BY n_pages DESC, domain
            LIMIT 20
        """,
        "page_merge_by_domain": f"""
            SELECT CASE WHEN d = '' THEN 'unknown' ELSE d END AS domain,
                   count(*) AS n_pages,
                   CAST(length(string_agg(coalesce(extracted_text, ''), chr(10) ORDER BY url)) AS BIGINT) AS total_chars,
                   sha256(string_agg(coalesce(extracted_text, ''), chr(10) ORDER BY url)) AS merged_sha256
            FROM (SELECT url, extracted_text,
                         regexp_extract(url, '{_DOMAIN_REGEX_SQL}', 1) AS d
                  FROM read_parquet('{_merge_input_tmp("/root/testdata/sf0.01")}/*.parquet'))
            GROUP BY 1
        """,
        "url_quality": f"""
            WITH f AS (
                SELECT url,
                       CASE WHEN d = '' THEN 'unknown' ELSE d END AS host,
                       CAST(length(url) AS BIGINT) AS url_len,
                       CAST(length(url) - length(regexp_replace(url, '[0-9]', '', 'g'))
                            AS BIGINT) AS n_digits,
                       CAST(length(url) - length(replace(url, '&', ''))
                            + CASE WHEN position('?' IN url) > 0 THEN 1 ELSE 0 END
                            AS BIGINT) AS n_params,
                       CAST((length(lower(url)) - length(replace(lower(url), 'casino', ''))) // 6
                          + (length(lower(url)) - length(replace(lower(url), 'viagra', ''))) // 6
                          + (length(lower(url)) - length(replace(lower(url), 'porn', ''))) // 4
                          + (length(lower(url)) - length(replace(lower(url), 'xxx', ''))) // 3
                          + (length(lower(url)) - length(replace(lower(url), 'gambling', ''))) // 8
                            AS BIGINT) AS blocklist_hits
                FROM (SELECT url, regexp_extract(url, '{_DOMAIN_REGEX_SQL}', 1) AS d
                      FROM read_parquet('{pages}'))
            )
            SELECT url, host, url_len, n_digits, n_params,
                   CAST(length(host) - length(replace(host, '.', '')) AS BIGINT)
                       AS host_dots,
                   blocklist_hits,
                   CAST(CASE WHEN blocklist_hits = 0 AND 2 * n_digits < url_len
                             THEN 1 ELSE 0 END AS BIGINT) AS keep
            FROM f
        """,
        "page_text_merge": f"""
            SELECT CASE WHEN d = '' THEN 'unknown' ELSE d END AS domain,
                   count(*) AS n_pages,
                   CAST(length(string_agg(text, chr(10) ORDER BY url)) AS BIGINT) AS total_chars,
                   sha256(string_agg(text, chr(10) ORDER BY url)) AS merged_sha256
            FROM (SELECT url, text, regexp_extract(url, '{_DOMAIN_REGEX_SQL}', 1) AS d
                  FROM read_parquet('{pages}'))
            GROUP BY 1
        """,
        "url_dedup_recrawl": f"""
            WITH all_rows AS (
                SELECT url, warc_ts, text, lang FROM read_parquet('{pages}')
                UNION ALL
                SELECT url, warc_ts + INTERVAL 7200 SECOND, text || ' recrawl', lang
                FROM read_parquet('{pages}')
            ),
            ranked AS (
                SELECT url, warc_ts, text, lang,
                       row_number() OVER (PARTITION BY url ORDER BY warc_ts) AS rn
                FROM all_rows
            )
            SELECT url, warc_ts, lang, sha256(text) AS text_sha256
            FROM ranked WHERE rn = 1
        """,
        "distinctive_terms": r"""
            WITH tok AS (
                SELECT source, unnest(string_split_regex(trim(text), '\s+')) AS term
                FROM documents WHERE length(trim(text)) > 0
            ),
            cnt AS (SELECT source, term, count(*) AS cnt FROM tok GROUP BY 1, 2),
            dfq AS (SELECT term, count(*) AS df FROM cnt GROUP BY term),
            ranked AS (
                SELECT c.source, c.term, c.cnt, d.df,
                       row_number() OVER (PARTITION BY c.source
                                          ORDER BY d.df ASC, c.cnt DESC, c.term) AS rank
                FROM cnt c JOIN dfq d USING (term)
            )
            SELECT source, term, CAST(cnt AS BIGINT) AS cnt,
                   CAST(df AS BIGINT) AS df, CAST(rank AS BIGINT) AS rank
            FROM ranked WHERE rank <= 5
        """,
        "doc_stats": """
            SELECT doc_id,
                   len(string_split_regex(trim(text), '\\s+')) AS n_tokens,
                   length(replace(text, ' ', '')) AS n_chars_nospace,
                   md5(text) AS fingerprint
            FROM documents
        """,
        "quality_score": f"""
            SELECT doc_id, n_tokens, n_stop, n_punct,
                   CAST(n_stop AS DOUBLE) / n_tokens AS stop_ratio,
                   CAST(n_punct AS DOUBLE) / n_chars AS punct_per_char
            FROM (
                SELECT doc_id,
                       len(string_split_regex(trim(text), '\\s+')) AS n_tokens,
                       len(regexp_extract_all(lower(text), '{_STOP_SQL}')) AS n_stop,
                       len(regexp_extract_all(text, '[.,;:!?]')) AS n_punct,
                       length(text) AS n_chars
                FROM documents
            )
        """,
        "lang_id": r"""
            SELECT doc_id,
                   CASE WHEN ne = 0 AND ns = 0 AND nf = 0 AND nd = 0 THEN 'und'
                        WHEN ne >= ns AND ne >= nf AND ne >= nd THEN 'en'
                        WHEN ns >= nf AND ns >= nd THEN 'es'
                        WHEN nf >= nd THEN 'fr'
                        ELSE 'de' END AS pred_lang
            FROM (
                SELECT doc_id,
                       len(regexp_extract_all(lower(text), '\b(the|and|of|to|in)\b')) AS ne,
                       len(regexp_extract_all(lower(text), '\b(el|la|de|que|y)\b')) AS ns,
                       len(regexp_extract_all(lower(text), '\b(le|la|de|et|les)\b')) AS nf,
                       len(regexp_extract_all(lower(text), '\b(der|die|und|das|ist)\b')) AS nd
                FROM documents
            )
        """,
        "corpus_prep": r"""
            SELECT fingerprint,
                   min(doc_id) AS keep_doc_id,
                   min(pred_lang) AS pred_lang,
                   min(n_tokens) AS n_tokens
            FROM (
                SELECT doc_id, md5(text) AS fingerprint,
                       CASE WHEN ne = 0 AND ns = 0 AND nf = 0 AND nd = 0 THEN 'und'
                            WHEN ne >= ns AND ne >= nf AND ne >= nd THEN 'en'
                            WHEN ns >= nf AND ns >= nd THEN 'es'
                            WHEN nf >= nd THEN 'fr'
                            ELSE 'de' END AS pred_lang,
                       n_tokens
                FROM (
                    SELECT doc_id, text,
                           len(string_split_regex(trim(text), '\s+')) AS n_tokens,
                           len(regexp_extract_all(lower(text), '\b(the|and|of|to|in)\b')) AS ne,
                           len(regexp_extract_all(lower(text), '\b(el|la|de|que|y)\b')) AS ns,
                           len(regexp_extract_all(lower(text), '\b(le|la|de|et|les)\b')) AS nf,
                           len(regexp_extract_all(lower(text), '\b(der|die|und|das|ist)\b')) AS nd
                    FROM documents
                )
                WHERE n_tokens BETWEEN 40 AND 120
            )
            GROUP BY fingerprint
        """,
        "exact_dedup": """
            SELECT md5(text) AS text_hash,
                   min(doc_id) AS keep_doc_id,
                   count(*) AS n_copies
            FROM documents
            GROUP BY md5(text)
        """,
        "soft_dedup_weights": """
            SELECT doc_id,
                   n_copies,
                   CAST(1000000 // n_copies AS BIGINT) AS weight_ppm
            FROM (
                SELECT doc_id,
                       count(*) OVER (PARTITION BY md5(text)) AS n_copies
                FROM documents
            )
        """,
        "kmeans_assign": """
            WITH c0 AS (
                SELECT vec_id AS cl, embedding AS c FROM embeddings WHERE vec_id < 8
            ),
            a1 AS (
                SELECT vec_id, cl FROM (
                    SELECT e.vec_id, c0.cl,
                           row_number() OVER (
                               PARTITION BY e.vec_id
                               ORDER BY list_distance(e.embedding, c0.c), c0.cl
                           ) AS rn
                    FROM embeddings e, c0
                ) WHERE rn = 1
            ),
            dims AS (
                SELECT a1.cl,
                       generate_subscripts(e.embedding, 1) AS dim,
                       unnest(e.embedding) AS val
                FROM embeddings e JOIN a1 USING (vec_id)
            ),
            c1 AS (
                SELECT cl, list(avg_val ORDER BY dim) AS c FROM (
                    SELECT cl, dim, avg(val) AS avg_val FROM dims GROUP BY cl, dim
                ) GROUP BY cl
            ),
            a2 AS (
                SELECT vec_id, cl FROM (
                    SELECT e.vec_id, c1.cl,
                           row_number() OVER (
                               PARTITION BY e.vec_id
                               ORDER BY list_distance(e.embedding, c1.c), c1.cl
                           ) AS rn
                    FROM embeddings e, c1
                ) WHERE rn = 1
            )
            SELECT vec_id, CAST(cl AS BIGINT) AS cluster FROM a2
        """,
        "knn_brute_force": _KNN_SQL,
        # PQ: two sliced Lloyd chains joined on vec_id.
        "pq_codes": _PQ_CODES_SQL,
        # ADC: the same chains + per-code centroid distance sums.
        "ann_pq": _ANN_PQ_SQL,
        # probe-all IVFPQ == exhaustive ADC: identical oracle by design
        "ann_ivfpq_exhaustive": _ANN_PQ_SQL,
        "ann_ivfpq_recall": """
            SELECT CAST(70 AS BIGINT) AS floor_pct,
                   CAST(1 AS BIGINT) AS meets_floor
        """,
        "ann_ivf_exhaustive": _KNN_SQL,
        "ann_lsh_exhaustive": _KNN_SQL,
        "ann_kmeans_exhaustive": _KNN_SQL,
        "ann_lsh_stats": _ann_lsh_stats_sql(),
        "ann_ivf_stats": _ANN_IVF_STATS_SQL,
        "embedding_near_dup": """
            SELECT CAST(a.label AS BIGINT) AS label,
                   a.vec_id AS vec_a, b.vec_id AS vec_b
            FROM embeddings a JOIN embeddings b
              ON a.label = b.label AND a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.25
        """,
        # SemDeDup oracle: the kmeans_assign 2-iteration CTE in cosine space
        # (normalized seed + normalized-member centroid update; assignment by
        # cosine DESC, cluster-id tie-break), then the greedy min-id dup rule
        # within the final clusters. Assignment margins and threshold gaps
        # are >= 1e-4 on the synthetic table — 10+ orders of magnitude above
        # numpy-vs-DuckDB double noise (verified for both sf legs).
        "semdedup": _SEMDEDUP_LLOYD_CTE + """,
            dup AS (
                SELECT DISTINCT pb.vec_id
                FROM a2 pa
                JOIN a2 pb ON pa.cl = pb.cl AND pa.vec_id < pb.vec_id
                JOIN embeddings ea ON ea.vec_id = pa.vec_id
                JOIN embeddings eb ON eb.vec_id = pb.vec_id
                WHERE list_cosine_similarity(ea.embedding, eb.embedding) >= 0.3
            )
        """ + _SEMDEDUP_TAIL,
        # keep="centroid": the paper's keep-closest-to-centroid rule — the
        # greedy order becomes (distance to final centroid, vec_id) within
        # each cluster; same-cluster distance gaps verified >= 2.1e-6 at
        # both legs, 10 orders above double noise.
        "semdedup_centroid": _SEMDEDUP_LLOYD_CTE + """,
            rnk AS (
                SELECT a2.vec_id, a2.cl,
                       row_number() OVER (
                           PARTITION BY a2.cl
                           ORDER BY list_distance(en.emb, c1.c), a2.vec_id
                       ) AS r
                FROM a2
                JOIN en USING (vec_id)
                JOIN c1 ON c1.cl = a2.cl
            ),
            dup AS (
                SELECT DISTINCT pb.vec_id
                FROM rnk pa
                JOIN rnk pb ON pa.cl = pb.cl AND pa.r < pb.r
                JOIN embeddings ea ON ea.vec_id = pa.vec_id
                JOIN embeddings eb ON eb.vec_id = pb.vec_id
                WHERE list_cosine_similarity(ea.embedding, eb.embedding) >= 0.3
            )
        """ + _SEMDEDUP_TAIL,
        "pricing_summary": f"""
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(sum({base_cents}) AS BIGINT) AS sum_base_cents,
                   CAST(sum({base_cents} * (100 - {disc_pct})) AS BIGINT) AS sum_disc_cents_e4,
                   count(*) AS n_rows
            FROM lineitem
            WHERE l_shipdate < TIMESTAMP '1998-09-01'
            GROUP BY l_returnflag, l_linestatus
        """,
        "revenue_by_segment": f"""
            SELECT coalesce(c.c_mktsegment, 'UNKNOWN') AS c_mktsegment,
                   CAST(sum({_CENTS.format(col="o.o_totalprice")}) AS BIGINT) AS revenue_cents,
                   count(*) AS n_orders
            FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY 1
        """,
        "top_parts_by_revenue": f"""
            SELECT l_partkey,
                   CAST(sum({base_cents} * (100 - {disc_pct})) AS BIGINT) AS revenue_cents
            FROM lineitem
            GROUP BY l_partkey
            ORDER BY revenue_cents DESC, l_partkey
            LIMIT 10
        """,
        "top_supplier_per_nation": f"""
            WITH rev AS (
                SELECT l_suppkey,
                       CAST(sum({base_cents} * (100 - {disc_pct})) AS BIGINT) AS revenue_cents
                FROM lineitem GROUP BY l_suppkey
            ),
            j AS (
                SELECT n.n_name, s.s_name, s.s_suppkey, rev.revenue_cents
                FROM rev
                JOIN supplier s ON s.s_suppkey = rev.l_suppkey
                JOIN nation n ON n.n_nationkey = s.s_nationkey
            )
            SELECT n_name, s_name, revenue_cents FROM (
                SELECT j.*, ROW_NUMBER() OVER (
                    PARTITION BY n_name
                    ORDER BY revenue_cents DESC, s_suppkey ASC
                ) AS rn FROM j
            ) WHERE rn = 1
        """,
        "bigram_coverage": r"""
            WITH d AS (
                SELECT doc_id, string_split_regex(trim(text), '\s+') AS t
                FROM documents WHERE length(trim(text)) > 0
            ),
            bg AS (
                SELECT doc_id,
                       unnest(CASE WHEN len(t) >= 2
                           THEN [t[i] || ' ' || t[i+1]
                                 for i in generate_series(1, len(t)-1)]
                           ELSE [] END) AS g
                FROM d
            ),
            cnt AS (SELECT g, COUNT(*) AS n FROM bg GROUP BY g),
            per_doc AS (
                SELECT bg.doc_id, COUNT(*) AS n_bigrams,
                       SUM(CASE WHEN cnt.n >= 5 THEN 1 ELSE 0 END) AS n_common
                FROM bg JOIN cnt ON cnt.g = bg.g GROUP BY bg.doc_id
            )
            SELECT docs.doc_id,
                   CAST(COALESCE(p.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(COALESCE(p.n_common, 0) AS BIGINT) AS n_common
            FROM documents docs LEFT JOIN per_doc p ON p.doc_id = docs.doc_id
        """,
        "suppliers_per_region": """
            SELECT coalesce(r.r_name, 'UNKNOWN') AS r_name,
                   count(*) AS n_suppliers,
                   CAST(sum(CAST(floor(s.s_acctbal*100 + 0.5) AS BIGINT)) AS BIGINT) AS acctbal_cents
            FROM supplier s
            LEFT JOIN nation n ON s.s_nationkey = n.n_nationkey
            LEFT JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY 1
        """,
        "orders_priority_monthly": """
            SELECT o_orderpriority,
                   date_trunc('month', o_orderdate) AS month_start,
                   count(*) AS n_orders,
                   CAST(sum(CAST(floor(o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM orders
            GROUP BY 1, 2
        """,
        "part_type_stats": """
            SELECT p_type,
                   count(*) AS n_parts,
                   CAST(min(p_size) AS BIGINT) AS min_size,
                   CAST(max(p_size) AS BIGINT) AS max_size,
                   CAST(sum(CAST(floor(p_retailprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS retail_cents
            FROM part
            GROUP BY 1
        """,
        "user_sessions": """
            SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
                   count(*) AS n_events,
                   min(ts) AS session_start, max(ts) AS session_end
            FROM (
                SELECT user_id, ts,
                       SUM(new_session) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS session_id
                FROM (
                    SELECT user_id, ts, event_id,
                           CASE WHEN ts - lag(ts) OVER (
                                    PARTITION BY user_id ORDER BY ts, event_id)
                                > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_session
                    FROM events
                )
            )
            GROUP BY user_id, session_id
        """,
        "segment_dedup": """
            WITH raw AS (
                SELECT doc_id,
                       unnest(string_split(text, ' ')) AS word,
                       generate_subscripts(string_split(text, ' '), 1) AS i
                FROM documents
            ),
            -- empty split tokens (leading/consecutive spaces) are not
            -- words; re-number the survivors so segments stay dense
            words AS (
                SELECT doc_id, word,
                       row_number() OVER (PARTITION BY doc_id ORDER BY i) AS i
                FROM raw WHERE word <> ''
            ),
            segs AS (
                SELECT doc_id, (i - 1) // 10 AS seg,
                       string_agg(word, ' ' ORDER BY i) AS seg_text
                FROM words GROUP BY doc_id, (i - 1) // 10
            ),
            cnt AS (
                SELECT seg_text, count(DISTINCT doc_id) AS nd
                FROM segs GROUP BY seg_text
            ),
            kept AS (
                SELECT s.doc_id, s.seg, s.seg_text
                FROM segs s JOIN cnt USING (seg_text) WHERE cnt.nd = 1
            ),
            tot AS (SELECT doc_id, count(*) AS n_total FROM segs GROUP BY doc_id)
            SELECT d.doc_id,
                   coalesce(string_agg(k.seg_text, ' ' ORDER BY k.seg), '') AS clean_text,
                   CAST(count(k.seg) AS BIGINT) AS n_kept,
                   CAST(coalesce(any_value(t.n_total), 0) - count(k.seg) AS BIGINT) AS n_dropped
            FROM documents d
            LEFT JOIN tot t ON t.doc_id = d.doc_id
            LEFT JOIN kept k ON k.doc_id = d.doc_id
            GROUP BY d.doc_id
        """,
        "event_pagerank": """
            WITH ordered AS (
                SELECT user_id, event_type,
                       lag(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
                FROM events
            ),
            edges AS (
                SELECT prev_type AS src, event_type AS dst,
                       CAST(count(*) AS BIGINT) AS w
                FROM ordered WHERE prev_type IS NOT NULL
                GROUP BY prev_type, event_type
            ),
            nodes AS (SELECT DISTINCT event_type AS node FROM events),
            outw AS (SELECT src, CAST(sum(w) AS BIGINT) AS total_w FROM edges GROUP BY src),
            r0 AS (SELECT node, CAST(1000000000 AS BIGINT) AS r FROM nodes),
            r1 AS (
                SELECT n.node,
                       CAST(150000000 + coalesce(sum(
                           (85 * r0.r * e.w) // (100 * o.total_w)), 0) AS BIGINT) AS r
                FROM nodes n
                LEFT JOIN edges e ON e.dst = n.node
                LEFT JOIN r0 ON r0.node = e.src
                LEFT JOIN outw o ON o.src = e.src
                GROUP BY n.node
            ),
            r2 AS (
                SELECT n.node,
                       CAST(150000000 + coalesce(sum(
                           (85 * r1.r * e.w) // (100 * o.total_w)), 0) AS BIGINT) AS r
                FROM nodes n
                LEFT JOIN edges e ON e.dst = n.node
                LEFT JOIN r1 ON r1.node = e.src
                LEFT JOIN outw o ON o.src = e.src
                GROUP BY n.node
            ),
            r3 AS (
                SELECT n.node,
                       CAST(150000000 + coalesce(sum(
                           (85 * r2.r * e.w) // (100 * o.total_w)), 0) AS BIGINT) AS r
                FROM nodes n
                LEFT JOIN edges e ON e.dst = n.node
                LEFT JOIN r2 ON r2.node = e.src
                LEFT JOIN outw o ON o.src = e.src
                GROUP BY n.node
            )
            SELECT r3.node AS event_type, r3.r AS pr3,
                   CAST(coalesce(o.total_w, 0) AS BIGINT) AS out_w,
                   CAST(coalesce((SELECT sum(w) FROM edges e2
                                  WHERE e2.dst = r3.node), 0) AS BIGINT) AS in_w
            FROM r3 LEFT JOIN outw o ON o.src = r3.node
        """,
        "events_spike_days": """
            WITH daily AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       CAST(count(*) AS BIGINT) AS n_events
                FROM events GROUP BY 1, 2
            ),
            stats AS (
                SELECT event_type AS etype,
                       CAST(count(*) AS BIGINT) AS d,
                       CAST(sum(n_events) AS BIGINT) AS t,
                       CAST(sum(n_events * n_events) AS BIGINT) AS sq
                FROM daily GROUP BY event_type
            )
            SELECT event_type, day, n_events,
                   CAST(
                     (n_events * d - t) > 0
                     AND (n_events * d - t) * (n_events * d - t)
                         > 4 * (d * sq - t * t)
                     AS BIGINT) AS is_spike
            FROM daily JOIN stats ON daily.event_type = stats.etype
        """,
        "events_asof_orders": """
            SELECT e.event_id, e.user_id,
                   CAST(epoch_us(o.o_orderdate) AS BIGINT) AS order_t_us,
                   CAST((epoch_us(e.ts) - epoch_us(o.o_orderdate)) // 3600000000 AS BIGINT) AS lag_hours
            FROM events e ASOF JOIN orders o
              ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
        """,
        "events_retention": """
            WITH act AS (
                SELECT DISTINCT user_id, date_trunc('day', ts) AS day
                FROM events
            ),
            first AS (
                SELECT user_id, min(day) AS cohort_day FROM act GROUP BY 1
            )
            SELECT cohort_day,
                   CAST(date_diff('day', cohort_day, day) AS BIGINT) AS day_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM act JOIN first USING (user_id)
            WHERE date_diff('day', cohort_day, day) BETWEEN 0 AND 7
            GROUP BY 1, 2
        """,
        "events_funnel": """
            WITH v AS (
                SELECT user_id, min(ts) AS view_ts
                FROM events WHERE event_type = 'view' GROUP BY 1
            ),
            joined AS (
                SELECT v.user_id, v.view_ts, min(p.ts) AS conv_ts
                FROM v LEFT JOIN events p
                  ON p.user_id = v.user_id
                 AND p.event_type = 'purchase'
                 AND p.ts >= v.view_ts
                 AND p.ts <= v.view_ts + INTERVAL 60 MINUTE
                GROUP BY 1, 2
            )
            SELECT user_id, view_ts,
                   CAST(CASE WHEN conv_ts IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
                       AS converted,
                   CAST(coalesce(date_diff('microsecond', view_ts, conv_ts) // 1000000,
                                 -1) AS BIGINT) AS secs_to_convert
            FROM joined
        """,
        "events_close_pairs": """
            SELECT a.user_id, a.event_id AS event_a, b.event_id AS event_b,
                   CAST((epoch_us(b.ts) - epoch_us(a.ts)) // 1000000 AS BIGINT) AS gap_seconds
            FROM events a JOIN events b
              ON a.user_id = b.user_id
             AND (b.ts > a.ts OR (b.ts = a.ts AND b.event_id > a.event_id))
             AND b.ts <= a.ts + INTERVAL 5 MINUTE
        """,
        "customers_without_orders": """
            SELECT c_mktsegment, count(*) AS n_customers
            FROM customer c
            WHERE NOT EXISTS (
                SELECT 1 FROM orders o
                WHERE o.o_custkey = c.c_custkey
                  AND o.o_orderdate >= TIMESTAMP '1998-01-01'
            )
            GROUP BY 1
        """,
        "events_sliding": f"""
            SELECT event_type,
                   make_timestamp((epoch_us(ts) // 900000000) * 900000000
                                  - k.k * 900000000) AS window_start,
                   count(*) AS n_events,
                   CAST(sum({_CENTS.format(col="value")}) AS BIGINT) AS sum_value_cents
            FROM events CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS k) k
            GROUP BY 1, 2
        """,
        "events_hourly": f"""
            SELECT event_type,
                   date_trunc('hour', ts) AS window_start,
                   count(*) AS n_events,
                   CAST(sum({_CENTS.format(col="value")}) AS BIGINT) AS sum_value_cents
            FROM events
            GROUP BY 1, 2
        """,
    }
