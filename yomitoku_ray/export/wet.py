"""WET sink: write extracted text as Common Crawl WET files.

WET is Common Crawl's published extracted-text artifact: a WARC file whose
records are ``WARC-Type: conversion`` entries (Content-Type text/plain, one
record per source url, ``WARC-Refers-To`` linking back to the response
record). Emitting it makes this engine a drop-in producer for the largest
public corpus format — pipelines downstream of Common Crawl can consume
this engine's output unchanged.

Scale shape: a ``BlockBasedFileDatasink`` — each Ray Data block streams to
its own ``.warc.wet.gz`` file (member-per-record gzip, exactly the CC
layout), so the write is distributed, resumable per file, and never
collects the dataset. The reader half is the WARC parser from
:mod:`yomitoku_ray.sources.warc` (WET *is* WARC), giving encoder-paired
round trips in the same pattern as the repo's other codecs.
"""

from __future__ import annotations

import gzip
from datetime import datetime, timezone
from typing import Iterator

import pyarrow as pa

from ..sources.warc import (
    _format_warc_date,
    _parse_warc_date,
    encode_warcinfo,
    iter_warc_records,
    warc_record_id,
)


def encode_wet_record(
    url: str,
    ts_us: int,
    text: str,
    *,
    refers_to: str = "",
) -> bytes:
    """One ``conversion`` record (plain-text payload), spec-exact framing,
    with its own :func:`warc_record_id`."""
    body = text.encode("utf-8")
    head = (
        b"WARC/1.0\r\n"
        b"WARC-Type: conversion\r\n"
        + b"WARC-Record-ID: %s\r\n"
        % warc_record_id(url, ts_us, "conversion").encode("ascii")
        + b"WARC-Target-URI: %s\r\n" % url.encode("utf-8")
        + b"WARC-Date: %s\r\n" % _format_warc_date(ts_us).encode("ascii")
        + (
            b"WARC-Refers-To: %s\r\n" % refers_to.encode("ascii")
            if refers_to
            else b""
        )
        + b"Content-Type: text/plain\r\n"
        + b"Content-Length: %d\r\n\r\n" % len(body)
    )
    return head + body + b"\r\n\r\n"


def iter_wet_rows(raw, *, path: str = "<stream>") -> Iterator[dict]:
    """conversion-type records -> (url, warc_ts, text) rows."""
    for headers, block in iter_warc_records(raw, path=path):
        if headers.get("warc-type", "").lower() != "conversion":
            continue
        yield {
            "url": headers.get("warc-target-uri", ""),
            "warc_ts": _parse_warc_date(headers.get("warc-date", "1970-01-01T00:00:00Z")),
            "text": block.decode("utf-8", "replace"),
        }


def read_wet(paths, *, batch_rows: int = 256):
    """Dataset of (url, warc_ts, text) rows from WET file(s) — the WARC
    reader's streaming shape with a conversion-record row mapper."""
    import ray.data
    from ray.data.datasource.file_based_datasource import FileBasedDatasource

    from ..sources.warc import _NativeFileAdapter

    schema = pa.schema(
        [("url", pa.string()), ("warc_ts", pa.timestamp("us")), ("text", pa.string())]
    )

    class WetDatasource(FileBasedDatasource):
        _FILE_EXTENSIONS = ["wet", "wet.gz", "warc.wet.gz"]

        def _open_input_source(self, filesystem, p, **open_args):
            open_args.pop("compression", None)
            return filesystem.open_input_stream(p, compression=None, **open_args)

        def _read_stream(self, f, p: str):
            raw = gzip.GzipFile(fileobj=_NativeFileAdapter(f)) if p.endswith(".gz") else f
            rows: list[dict] = []
            for row in iter_wet_rows(raw, path=p):
                rows.append(row)
                if len(rows) >= batch_rows:
                    yield _wet_table(rows, schema)
                    rows = []
            if rows:
                yield _wet_table(rows, schema)

    return ray.data.read_datasource(WetDatasource(paths))


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _ts_us_of(dt: datetime) -> int:
    """Arrow ``timestamp('us').to_pylist()`` yields tz-NAIVE datetimes that
    are UTC by the column's convention; ``.timestamp()`` would reinterpret
    them in the host zone (9 h off under TZ=Asia/Tokyo) and its float
    multiply truncates microseconds — the exact trap ``_parse_warc_date``
    documents. Integer timedelta math against the UTC epoch instead."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    delta = dt - _EPOCH
    return (delta.days * 86_400 + delta.seconds) * 1_000_000 + delta.microseconds


def _wet_table(rows: list[dict], schema: pa.Schema) -> pa.Table:
    return pa.table(
        {
            "url": pa.array([r["url"] for r in rows], pa.string()),
            "warc_ts": pa.array([r["warc_ts"] for r in rows], pa.timestamp("us")),
            "text": pa.array([r["text"] for r in rows], pa.string()),
        }
    )


def write_wet(
    ds,
    path: str,
    *,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    text_col: str = "extracted_text",
    include_warcinfo: bool = True,
):
    """Distributed WET write: one ``.warc.wet.gz`` per block under ``path``.

    Rows whose text is null are skipped (error rows carry no conversion
    record, matching CC's behavior of omitting unextractable responses).
    Each record's ``WARC-Refers-To`` is the id :func:`encode_warc_record`
    gives the response record of the same ``(url, ts_us)``.
    """
    from ray.data.datasource import BlockBasedFileDatasink

    class WetDatasink(BlockBasedFileDatasink):
        def __init__(self):
            # compression=None: the .gz suffix would otherwise make arrow
            # wrap the stream in ANOTHER gzip layer on top of the
            # member-per-record compression below.
            super().__init__(
                path,
                file_format="warc.wet.gz",
                open_stream_args={"compression": None},
            )

        def write_block_to_file(self, block, file):
            tbl = block.to_arrow()
            urls = tbl.column(url_col).to_pylist()
            tss = tbl.column(ts_col).to_pylist()
            texts = tbl.column(text_col).to_pylist()
            if include_warcinfo:
                first = tss[0] if tss else None
                ts0 = _ts_us_of(first) if first is not None else 0
                file.write(gzip.compress(encode_warcinfo(ts0)))
            for url, ts, text in zip(urls, tss, texts):
                if text is None:
                    continue
                ts_us = _ts_us_of(ts) if ts is not None else 0
                rec = encode_wet_record(
                    url, ts_us, text, refers_to=warc_record_id(url, ts_us)
                )
                file.write(gzip.compress(rec))

    ds.write_datasink(WetDatasink())
