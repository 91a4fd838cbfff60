"""WAT sink + source: envelope structure, distributed round trip, garbage
tolerance, and parity between the read-back columns and a direct DOM parse."""

import glob

import pyarrow as pa
import pytest

from yomitoku_ray.dom import decode_html, parse_html
from yomitoku_ray.export.wat import (
    build_wat_envelope,
    encode_wat_record,
    html_metadata,
    iter_wat_rows,
    read_wat,
    write_wat,
)
from yomitoku_ray.export.wet import _ts_us_of
from yomitoku_ray.synth.pages import generate_pages_table


def test_html_metadata_title_and_links():
    html = (
        b"<html><head><title>T1</title><link href='/s.css'></head>"
        b"<body><a href='/a'>x</a><img src='/i.png'><a href=''>skip</a>"
        b"<a href='/b'>y</a></body></html>"
    )
    meta = html_metadata(html)
    assert meta["Head"]["Title"] == "T1"
    paths = [(l["path"], l["url"]) for l in meta["Links"]]
    assert ("A@/href", "/a") in paths
    assert ("A@/href", "/b") in paths
    assert ("IMG@/src", "/i.png") in paths
    assert meta["Head"]["Link"] == [{"path": "LINK@/href", "url": "/s.css"}]
    assert all(l["url"] for l in meta["Links"])  # empty href skipped


def test_html_metadata_head_link_goes_under_head():
    """CC's envelope: a head <link> under Head.Link, body links under Links."""
    meta = html_metadata(
        b"<html><head><link rel='stylesheet' href='/s.css'></head>"
        b"<body><a href='/a'>x</a></body></html>"
    )
    assert meta == {
        "Head": {"Link": [{"path": "LINK@/href", "url": "/s.css"}]},
        "Links": [{"path": "A@/href", "url": "/a"}],
    }


def test_html_metadata_garbage_is_empty():
    assert html_metadata(b"\xff\xfe\x00 garbage \x00") == {}


def test_envelope_structure_and_record_framing():
    env = build_wat_envelope(
        "http://e.x/p", 1_000_000, b"<html><head><title>z</title></head><body>.</body></html>"
    )
    e = env["Envelope"]
    assert e["Format"] == "WARC"
    assert e["WARC-Header-Metadata"]["WARC-Target-URI"] == "http://e.x/p"
    hrm = e["Payload-Metadata"]["HTTP-Response-Metadata"]
    assert hrm["Response-Message"]["Status"] == "200"
    assert hrm["HTML-Metadata"]["Head"]["Title"] == "z"
    assert hrm["Entity-Length"] == "56"
    rec = encode_wat_record("http://e.x/p", 1_000_000, env)
    assert rec.startswith(b"WARC/1.0\r\nWARC-Type: metadata\r\n")
    assert b"Content-Type: application/json\r\n" in rec
    # deterministic bytes
    assert rec == encode_wat_record("http://e.x/p", 1_000_000, env)


def test_null_html_still_emits_record():
    env = build_wat_envelope("http://e.x/n", 0, None)
    hrm = env["Envelope"]["Payload-Metadata"]["HTTP-Response-Metadata"]
    assert hrm["Entity-Length"] == "0"
    assert "HTML-Metadata" not in hrm
    import io

    rows = list(iter_wat_rows(io.BytesIO(encode_wat_record("http://e.x/n", 0, env))))
    assert [r["url"] for r in rows] == ["http://e.x/n"]
    assert rows[0]["envelope"] == env


def test_pages_roundtrip_matches_direct_parse(ray_session, tmp_path):
    import ray.data

    table = generate_pages_table(60)
    out = str(tmp_path / "wat")
    write_wat(ray.data.from_arrow(table), out)
    shards = glob.glob(out + "/*.warc.wat.gz")
    assert shards
    got = read_wat(out).to_pandas().set_index("url").sort_index()
    assert len(got) == 60

    for r in table.to_pylist():
        # expected title/links from a direct single-process parse
        try:
            root = parse_html(decode_html(r["html"]))
            want_title = (
                root.find_all("title")[0].text_content()
                if root.find_all("title")
                else None
            )
            want_links = sum(
                1
                for n in root.iter()
                for t, a in (("a", "href"), ("img", "src"), ("link", "href"))
                if n.tag == t and n.attr(a)
            )
        except Exception:
            want_title, want_links = None, 0
        row = got.loc[r["url"]]
        assert row["title"] == want_title or (
            want_title is None and row["title"] is None
        )
        assert int(row["n_links"]) == want_links
        assert _ts_us_of(row["warc_ts"]) == _ts_us_of(r["warc_ts"])


def test_wat_reader_skips_non_metadata_records(tmp_path):
    from yomitoku_ray.sources.warc import encode_warc_record

    blob = encode_warc_record("http://e.x/r", 0, b"<p>x</p>") + encode_wat_record(
        "http://e.x/m",
        0,
        build_wat_envelope(
            "http://e.x/m",
            0,
            b"<html><head><title>q</title></head><body>.</body></html>",
        ),
    )
    p = tmp_path / "mixed.warc.wat"
    p.write_bytes(blob)
    import io

    rows = list(iter_wat_rows(io.BytesIO(blob), path=str(p)))
    assert [r["url"] for r in rows] == ["http://e.x/m"]
    assert rows[0]["envelope"]["Envelope"]["Payload-Metadata"][
        "HTTP-Response-Metadata"
    ]["HTML-Metadata"]["Head"]["Title"] == "q"


def test_every_record_has_a_unique_stable_id(ray_session, tmp_path):
    """WAT metadata and WET conversion records each carry their own
    WARC-Record-ID, distinct from each other and from the response record,
    identical across writes, and WARC-Refers-To names the id the WARC
    encoder gives the response record of the same capture (warcinfo
    records carry no id and are left out)."""
    import gzip
    import io

    import ray.data

    from yomitoku_ray.export.wet import write_wet
    from yomitoku_ray.sources.warc import encode_warc_record, iter_warc_records

    table = generate_pages_table(30)
    ds = ray.data.from_arrow(table)

    def headers(out):
        hs = []
        for p in sorted(glob.glob(out + "/*.gz")):
            with gzip.open(p) as f:
                hs += [h for h, _ in iter_warc_records(f) if h["warc-type"] != "warcinfo"]
        return hs

    runs = []
    for k in range(2):
        write_wat(ds, str(tmp_path / f"wat{k}"))
        write_wet(ds, str(tmp_path / f"wet{k}"), text_col="text")
        runs.append(headers(str(tmp_path / f"wat{k}")) + headers(str(tmp_path / f"wet{k}")))
    hs = runs[0]
    assert sorted(h["warc-type"] for h in hs) == ["conversion"] * 30 + ["metadata"] * 30

    response_id = {}
    for r in table.to_pylist():
        rec = encode_warc_record(r["url"], _ts_us_of(r["warc_ts"]), r["html"])
        head, _ = next(iter_warc_records(io.BytesIO(rec)))
        response_id[r["url"]] = head["warc-record-id"]
    ids = [h["warc-record-id"] for h in hs] + list(response_id.values())
    assert len(set(ids)) == len(ids) == 90
    assert all(h["warc-refers-to"] == response_id[h["warc-target-uri"]] for h in hs)
    assert sorted(h["warc-record-id"] for h in runs[1]) == sorted(
        h["warc-record-id"] for h in hs
    )
