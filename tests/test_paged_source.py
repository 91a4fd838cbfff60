"""S2 multi-page document source: container codec, explosion, merge round trip.

Mirrors the reference's loader test strategy
(/root/reference/tests/test_data.py:16-141): invalid containers raise,
valid containers yield >= 1 page, page caps bound memory; plus the engine's
own gate — explode -> extract -> merge reproduces per-page oracle extraction
joined in page order, byte-for-byte.
"""

import hashlib

import pyarrow.parquet as pq
import pytest

from yomitoku_ray.sources.paged import (
    decode_paged_doc,
    encode_paged_doc,
    explode_paged_docs,
    gen_paged_doc,
    generate_paged_docs_table,
)


def test_codec_round_trip():
    pages = [b"<html>a</html>", b"", b"<html>" + b"x" * 5000 + b"</html>"]
    assert decode_paged_doc(encode_paged_doc(pages)) == pages
    assert decode_paged_doc(encode_paged_doc([])) == []


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"garbage",
        b"YTRPAGED",  # header truncated
        encode_paged_doc([b"a", b"b"])[:-1],  # payload truncated
        encode_paged_doc([b"a"]) + b"trailing",  # trailing junk
        b"\x00\x01" + encode_paged_doc([b"a"])[2:],  # bad magic
    ],
)
def test_codec_rejects_malformed(blob):
    with pytest.raises(ValueError):
        decode_paged_doc(blob)


def _expected_pages(blob):
    try:
        return decode_paged_doc(blob)
    except ValueError:
        return None


def test_explode_matches_container_contents(ray_session, tmp_path):
    import ray.data

    t = generate_paged_docs_table(300)
    pq.write_table(t, str(tmp_path / "paged.parquet"))
    df = explode_paged_docs(
        ray.data.read_parquet(str(tmp_path / "paged.parquet"))
    ).to_pandas()

    by_doc = df.groupby("doc_url")
    n_err = 0
    for row in t.to_pylist():
        pages = _expected_pages(row["doc_bytes"])
        g = by_doc.get_group(row["doc_url"]).sort_values("page_idx")
        if pages is None:
            n_err += 1
            assert len(g) == 1
            assert g["explode_error"].iloc[0]
            assert g["html"].iloc[0] == b""
        else:
            assert len(g) == len(pages)
            assert [bytes(h) for h in g["html"]] == pages
            assert g["page_idx"].tolist() == list(range(1, len(pages) + 1))
    assert n_err >= 1  # the 2% malformed rate must actually exercise the path


def test_explode_page_cap(ray_session, tmp_path):
    import ray.data

    import pyarrow as pa

    from yomitoku_ray.sources.paged import PAGED_SCHEMA

    pages = [f"<html><p>p{i}</p></html>".encode() for i in range(7)]
    t = pa.Table.from_pylist(
        [{"doc_url": "https://x/doc", "warc_ts": 0, "doc_bytes": encode_paged_doc(pages)}],
        schema=PAGED_SCHEMA,
    )
    pq.write_table(t, str(tmp_path / "one.parquet"))
    df = explode_paged_docs(
        ray.data.read_parquet(str(tmp_path / "one.parquet")), max_pages=3
    ).to_pandas()
    assert len(df) == 3
    assert df["n_doc_pages"].tolist() == [7, 7, 7]
    assert df["explode_error"].iloc[-1] == "truncated: page cap"


def test_explode_extract_merge_round_trip(ray_session, tmp_path):
    """Byte-equality: the distributed explode->extract->merge pipeline equals
    per-page oracle extraction joined in page order."""
    import ray.data

    from yomitoku_ray.functions.merge import merge_exploded_pages
    from yomitoku_ray.oracle import analyze_html_bytes
    from yomitoku_ray.pipelines.extract import ExtractConfig, build_extract_pipeline

    n_docs = 40
    t = generate_paged_docs_table(n_docs)
    pq.write_table(t, str(tmp_path / "paged.parquet"))
    src = ray.data.read_parquet(str(tmp_path / "paged.parquet"))
    pages = explode_paged_docs(src).select_columns(["url", "warc_ts", "html", "lang"])
    result = build_extract_pipeline(pages, ExtractConfig())
    merged = (
        merge_exploded_pages(result)
        .to_pandas()
        .set_index("doc_url")
        .sort_index()
    )

    for row in t.to_pylist():
        page_blobs = _expected_pages(row["doc_bytes"])
        url = row["doc_url"]
        if page_blobs is None:
            texts = [""]  # single error row, empty extraction
        else:
            texts = []
            for i, blob in enumerate(page_blobs):
                out, err = analyze_html_bytes(blob, f"{url}#page={i + 1}")
                texts.append("" if err is not None else out["extracted_text"])
        expect = "\n".join(texts)
        got = merged.loc[url]
        assert got["n_pages"] == len(texts)
        assert got["total_chars"] == len(expect)
        assert got["merged_sha256"] == hashlib.sha256(expect.encode("utf-8")).hexdigest()
