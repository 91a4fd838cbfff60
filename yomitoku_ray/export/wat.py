"""WAT sink + source: Common Crawl's per-page metadata artifact.

WAT completes the CC format triad this engine speaks (WARC = raw capture,
WET = extracted text, WAT = metadata): a WARC file whose records are
``WARC-Type: metadata`` entries with an ``application/json`` payload — the
"Envelope" structure CC publishes (WARC header echo + HTTP response
metadata + HTML head/link metadata). Downstream link-graph and URL-index
pipelines consume exactly this shape, so emitting it makes the engine a
drop-in CC metadata producer; the reference has no CC surface at all (it
reads local files — ``/root/reference/src/yomitoku/cli/main.py``), this is
the web-scale counterpart.

Scale shape mirrors :mod:`yomitoku_ray.export.wet`: the sink is a
``BlockBasedFileDatasink`` (one ``.warc.wat.gz`` per block, gzip member per
record — the CC layout), the HTML metadata extraction runs inside the write
task over the block's rows (no extra stage, no shuffle), and the reader is
the streaming WARC parser with a metadata-record row mapper. Determinism:
compact sorted-key-free JSON with a FIXED insertion order, the WARC
encoder's md5 record ids, integer-µs dates — byte-identical output for
identical input.
"""

from __future__ import annotations

import gzip
import json
from typing import Iterator

import pyarrow as pa

from ..dom import decode_html, parse_html
from ..sources.warc import (
    _format_warc_date,
    _parse_warc_date,
    encode_warcinfo,
    iter_warc_records,
    warc_record_id,
)
from .wet import _ts_us_of

# (tag, attribute) pairs harvested as links, in document order — the three
# CC WAT emits. A ``<link>`` inside ``<head>`` goes to ``Head.Link``, as in
# CC's envelope; every other one goes to ``Links``.
_LINK_ATTRS = (("a", "href"), ("img", "src"), ("link", "href"))


def _in_head(node) -> bool:
    while node is not None:
        if node.tag == "head":
            return True
        node = node.parent
    return False


def all_links(meta: dict) -> list[dict]:
    """Every link of an ``HTML-Metadata`` sub-envelope: head, then body."""
    return meta.get("Head", {}).get("Link", []) + meta.get("Links", [])


def html_metadata(html: bytes) -> dict:
    """``HTML-Metadata`` sub-envelope for one page: head title and links,
    body links.

    Decode/parse failures return ``{}`` — the WAT record still frames the
    WARC/HTTP metadata, mirroring CC's behavior for non-HTML payloads (the
    per-row error policy belongs to the producing pipeline, the sink never
    fails a block on one bad page).
    """
    try:
        root = parse_html(decode_html(html))
    except Exception:  # DecodeError, parser errors: non-HTML payload
        return {}
    head: dict = {}
    titles = root.find_all("title")
    if titles:
        head["Title"] = titles[0].text_content()
    head_links, links = [], []
    want = {t: a for t, a in _LINK_ATTRS}
    for node in root.iter():
        attr = want.get(node.tag)
        if attr is None:
            continue
        url = node.attr(attr)
        if url:
            link = {"path": f"{node.tag.upper()}@/{attr}", "url": url}
            (head_links if node.tag == "link" and _in_head(node) else links).append(link)
    if head_links:
        head["Link"] = head_links
    meta: dict = {}
    if head:
        meta["Head"] = head
    if links:
        meta["Links"] = links
    return meta


def build_wat_envelope(
    url: str,
    ts_us: int,
    html: bytes | None,
    *,
    status: int = 200,
    content_type: str = "text/html",
) -> dict:
    """The CC ``Envelope`` structure for one response record."""
    payload_meta: dict = {
        "Actual-Content-Type": "application/http; msgtype=response",
        "HTTP-Response-Metadata": {
            "Response-Message": {"Status": str(status)},
            "Headers": {"Content-Type": content_type},
            "Entity-Length": str(len(html) if html is not None else 0),
        },
    }
    if html:
        hm = html_metadata(html)
        if hm:
            payload_meta["HTTP-Response-Metadata"]["HTML-Metadata"] = hm
    return {
        "Envelope": {
            "Format": "WARC",
            "WARC-Header-Metadata": {
                "WARC-Type": "response",
                "WARC-Target-URI": url,
                "WARC-Date": _format_warc_date(ts_us),
            },
            "Payload-Metadata": payload_meta,
        }
    }


def encode_wat_record(
    url: str,
    ts_us: int,
    envelope: dict,
    *,
    refers_to: str = "",
) -> bytes:
    """One ``metadata`` record (JSON payload), spec-exact framing, with its
    own :func:`warc_record_id`."""
    body = (
        json.dumps(envelope, ensure_ascii=False, separators=(",", ":")) + "\n"
    ).encode("utf-8")
    head = (
        b"WARC/1.0\r\n"
        b"WARC-Type: metadata\r\n"
        + b"WARC-Record-ID: %s\r\n"
        % warc_record_id(url, ts_us, "metadata").encode("ascii")
        + b"WARC-Target-URI: %s\r\n" % url.encode("utf-8")
        + b"WARC-Date: %s\r\n" % _format_warc_date(ts_us).encode("ascii")
        + (
            b"WARC-Refers-To: %s\r\n" % refers_to.encode("ascii")
            if refers_to
            else b""
        )
        + b"Content-Type: application/json\r\n"
        + b"Content-Length: %d\r\n\r\n" % len(body)
    )
    return head + body + b"\r\n\r\n"


def write_wat(
    ds,
    path: str,
    *,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    html_col: str = "html",
    include_warcinfo: bool = True,
):
    """Distributed WAT write: one ``.warc.wat.gz`` per block under ``path``.

    Metadata extraction (DOM parse for title/links) runs here, inside the
    write task — rows whose html is null still emit a record (WARC/HTTP
    metadata only), matching CC. Each record's ``WARC-Refers-To`` is the
    id :func:`encode_warc_record` gives the response record of the same
    ``(url, ts_us)``.
    """
    from ray.data.datasource import BlockBasedFileDatasink

    class WatDatasink(BlockBasedFileDatasink):
        def __init__(self):
            # compression=None: the .gz suffix would otherwise make arrow
            # stack a second gzip layer on the member-per-record one below.
            super().__init__(
                path,
                file_format="warc.wat.gz",
                open_stream_args={"compression": None},
            )

        def write_block_to_file(self, block, file):
            tbl = block.to_arrow()
            urls = tbl.column(url_col).to_pylist()
            tss = tbl.column(ts_col).to_pylist()
            htmls = tbl.column(html_col).to_pylist()
            if include_warcinfo:
                first = tss[0] if tss else None
                ts0 = _ts_us_of(first) if first is not None else 0
                file.write(gzip.compress(encode_warcinfo(ts0)))
            for url, ts, html in zip(urls, tss, htmls):
                ts_us = _ts_us_of(ts) if ts is not None else 0
                env = build_wat_envelope(
                    url, ts_us, bytes(html) if html is not None else None
                )
                rec = encode_wat_record(
                    url, ts_us, env, refers_to=warc_record_id(url, ts_us)
                )
                file.write(gzip.compress(rec))

    ds.write_datasink(WatDatasink())


def iter_wat_rows(raw, *, path: str = "<stream>") -> Iterator[dict]:
    """metadata-type records -> (url, warc_ts, envelope dict) rows."""
    for headers, block in iter_warc_records(raw, path=path):
        if headers.get("warc-type", "").lower() != "metadata":
            continue
        yield {
            "url": headers.get("warc-target-uri", ""),
            "warc_ts": _parse_warc_date(
                headers.get("warc-date", "1970-01-01T00:00:00Z")
            ),
            "envelope": json.loads(block.decode("utf-8")),
        }


def read_wat(paths, *, batch_rows: int = 256):
    """Dataset of (url, warc_ts, title, n_links, envelope_json) rows from
    WAT file(s) — streaming one task per file. Title/link count are lifted
    out of the envelope as typed columns (the two fields link-graph and
    index pipelines key on); the full envelope rides along as JSON text."""
    import ray.data
    from ray.data.datasource.file_based_datasource import FileBasedDatasource

    from ..sources.warc import _NativeFileAdapter

    def _table(rows: list[dict]) -> pa.Table:
        titles, n_links = [], []
        for r in rows:
            hm = (
                r["envelope"]
                .get("Envelope", {})
                .get("Payload-Metadata", {})
                .get("HTTP-Response-Metadata", {})
                .get("HTML-Metadata", {})
            )
            titles.append(hm.get("Head", {}).get("Title"))
            n_links.append(len(all_links(hm)))
        return pa.table(
            {
                "url": pa.array([r["url"] for r in rows], pa.string()),
                "warc_ts": pa.array(
                    [r["warc_ts"] for r in rows], pa.timestamp("us")
                ),
                "title": pa.array(titles, pa.string()),
                "n_links": pa.array(n_links, pa.int64()),
                "envelope_json": pa.array(
                    [
                        json.dumps(
                            r["envelope"], ensure_ascii=False, separators=(",", ":")
                        )
                        for r in rows
                    ],
                    pa.string(),
                ),
            }
        )

    class WatDatasource(FileBasedDatasource):
        _FILE_EXTENSIONS = ["wat", "wat.gz", "warc.wat.gz"]

        def _open_input_source(self, filesystem, p, **open_args):
            open_args.pop("compression", None)
            return filesystem.open_input_stream(p, compression=None, **open_args)

        def _read_stream(self, f, p: str):
            raw = gzip.GzipFile(fileobj=_NativeFileAdapter(f)) if p.endswith(".gz") else f
            rows: list[dict] = []
            for row in iter_wat_rows(raw, path=p):
                rows.append(row)
                if len(rows) >= batch_rows:
                    yield _table(rows)
                    rows = []
            if rows:
                yield _table(rows)

    return ray.data.read_datasource(WatDatasource(paths))
