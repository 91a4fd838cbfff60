"""WET sink/source: distributed write of conversion records, streaming read
back, null-text skip, and the full WARC->extract->WET chain."""

import glob
import gzip
import io

import pytest

from yomitoku_ray.export.wet import (
    _ts_us_of,
    encode_wet_record,
    iter_wet_rows,
    read_wet,
    write_wet,
)
from yomitoku_ray.sources.warc import read_warc, write_warc_file
from yomitoku_ray.synth.pages import generate_pages_table


def test_wet_record_roundtrip_unit():
    rec = encode_wet_record("http://a/", 1_700_000_000_123_456, "héllo\nwörld",
                            refers_to="<urn:uuid:1>")
    rows = list(iter_wet_rows(io.BytesIO(rec)))
    assert rows == [
        {"url": "http://a/", "warc_ts": 1_700_000_000_123_456, "text": "héllo\nwörld"}
    ]


def test_warc_extract_wet_chain(ray_session, tmp_path):
    from yomitoku_ray.pipelines.extract import ExtractConfig, build_extract_pipeline

    t = generate_pages_table(60)
    rows = [
        {
            "url": r["url"],
            "warc_ts": _ts_us_of(r["warc_ts"]),
            "html": r["html"],
            "lang": r["lang"],
        }
        for r in t.to_pylist()
    ]
    warc = str(tmp_path / "in.warc.gz")
    write_warc_file(rows, warc)

    src = read_warc(warc).select_columns(["url", "warc_ts", "html", "lang"])
    out = build_extract_pipeline(src, ExtractConfig())
    wet_dir = str(tmp_path / "wet")
    # CC omits unextractable responses from WET: drop error rows upstream.
    write_wet(out.filter(expr="is_null(error)"), wet_dir)

    files = glob.glob(f"{wet_dir}/*.warc.wet.gz")
    assert files, "no WET files written"
    back = read_wet(files).to_pandas().sort_values("url").reset_index(drop=True)

    want = out.to_pandas()
    ok = want[want["error"].isna()].sort_values("url").reset_index(drop=True)
    assert len(back) == len(ok)  # error rows carry no conversion record
    assert (back["url"] == ok["url"]).all()
    assert (back["text"] == ok["extracted_text"]).all()  # byte-exact text
    # timestamps survive microsecond-exact
    assert (
        back["warc_ts"].astype("datetime64[us]") == ok["warc_ts"].astype("datetime64[us]")
    ).all()


def test_wet_multi_member_gzip_layout(ray_session, tmp_path):
    # Each record is its own gzip member (CC layout): truncating the file at
    # a member boundary yields a readable prefix — the property CC tooling
    # relies on for range requests.
    import ray.data

    ds = ray.data.from_items(
        [
            {"url": f"http://x/{i}", "warc_ts": None, "extracted_text": f"t{i}"}
            for i in range(4)
        ]
    )
    wet_dir = str(tmp_path / "w")
    write_wet(ds, wet_dir, include_warcinfo=False)
    f = glob.glob(f"{wet_dir}/*.warc.wet.gz")
    data = b"".join(open(p, "rb").read() for p in f)
    # decompress member-by-member and count records
    n = 0
    buf = io.BytesIO(data)
    g = gzip.GzipFile(fileobj=buf)
    n = sum(1 for _ in iter_wet_rows(g))
    assert n == 4


def test_wet_skips_null_text(ray_session, tmp_path):
    import ray.data

    ds = ray.data.from_items(
        [
            {"url": "http://a/", "warc_ts": None, "extracted_text": "ok"},
            {"url": "http://b/", "warc_ts": None, "extracted_text": None},
        ]
    )
    wet_dir = str(tmp_path / "w")
    write_wet(ds, wet_dir, include_warcinfo=False)
    back = read_wet(glob.glob(f"{wet_dir}/*.warc.wet.gz")).to_pandas()
    assert list(back["url"]) == ["http://a/"]


def test_crawl_cli(ray_session, tmp_path, capsys):
    from yomitoku_ray.__main__ import main

    t = generate_pages_table(20)
    rows = [
        {
            "url": r["url"],
            "warc_ts": _ts_us_of(r["warc_ts"]),
            "html": r["html"],
            "lang": r["lang"],
        }
        for r in t.to_pylist()
    ]
    warc = str(tmp_path / "in.warc.gz")
    write_warc_file(rows, warc)
    main(["crawl", warc, str(tmp_path / "wet"), "--wet"])
    assert glob.glob(str(tmp_path / "wet" / "*.warc.wet.gz"))
    main(["crawl", warc, str(tmp_path / "pq"), "--wat", str(tmp_path / "wat")])
    import pyarrow.parquet as pq

    assert pq.read_table(str(tmp_path / "pq")).num_rows == 20
    from yomitoku_ray.export.wat import read_wat

    wat = read_wat(str(tmp_path / "wat")).to_pandas()
    assert sorted(wat["url"]) == sorted(r["url"] for r in rows)
    assert (wat["n_links"] >= 0).all() and wat["n_links"].sum() > 0


def test_crawl_cli_rejects_resumable_wet_before_any_output(ray_session, tmp_path):
    from yomitoku_ray.__main__ import main

    rows = [
        {"url": r["url"], "warc_ts": _ts_us_of(r["warc_ts"]), "html": r["html"], "lang": r["lang"]}
        for r in generate_pages_table(3).to_pylist()
    ]
    warc = str(tmp_path / "in.warc.gz")
    write_warc_file(rows, warc)
    wat = tmp_path / "wat"
    with pytest.raises(SystemExit, match="drop --wet"):
        main(["crawl", warc, str(tmp_path / "out"), "--resumable", "--wet", "--wat", str(wat)])
    assert not wat.exists()
    assert not (tmp_path / "out").exists()


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(
        st.text(
            alphabet=st.characters(
                blacklist_categories=("Cs",)  # any unicode except surrogates
            ),
            max_size=300,
        ),
        min_size=1,
        max_size=5,
    ),
    ts=st.integers(min_value=0, max_value=4_000_000_000_000_000),
)
def test_wet_text_roundtrip_fuzz(texts, ts):
    """Any unicode text (embedded CRLF, WARC/1.0 strings, control chars)
    survives the conversion-record round trip byte-exactly."""
    recs = b"".join(
        encode_wet_record(f"http://h/{i}", ts + i, t) for i, t in enumerate(texts)
    )
    got = list(iter_wet_rows(io.BytesIO(recs)))
    assert [r["text"] for r in got] == texts
    assert [r["warc_ts"] for r in got] == [ts + i for i in range(len(texts))]


def test_ts_us_integer_and_tz_independent():
    """WET timestamps must not shift with the host zone nor truncate µs
    (ADVICE r4: naive .timestamp()*1e6 did both)."""
    import os
    import time
    from datetime import datetime, timezone

    from yomitoku_ray.export.wet import _ts_us_of

    dt = datetime(2021, 5, 4, 3, 2, 1, 244)  # 244 µs: the float-trap value
    expected = (
        int(
            (
                datetime(2021, 5, 4, 3, 2, 1, tzinfo=timezone.utc)
                - datetime(1970, 1, 1, tzinfo=timezone.utc)
            ).total_seconds()
        )
        * 1_000_000
        + 244
    )
    old_tz = os.environ.get("TZ")
    try:
        for tz in ("UTC", "Asia/Tokyo", "America/New_York"):
            os.environ["TZ"] = tz
            time.tzset()
            assert _ts_us_of(dt) == expected, tz
    finally:
        if old_tz is None:
            os.environ.pop("TZ", None)
        else:
            os.environ["TZ"] = old_tz
        time.tzset()
