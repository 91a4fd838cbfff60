"""JSONL(.gz) sink + source: the LLM-corpus interchange format.

One JSON object per line is how public training corpora actually ship
(C4 / Dolma / RedPajama / The Pile all distribute ``.jsonl`` or
``.json.gz`` shards), so this is the seam where this engine's output
feeds an external training stack — the counterpart of the reference's
JSON exporter (``/root/reference/src/yomitoku/export/export_json.py``)
lifted from one-file-per-document to one-shard-per-block.

Scale shape mirrors :mod:`yomitoku_ray.export.wet`:

- ``write_jsonl`` is a ``BlockBasedFileDatasink`` — each Ray Data block
  streams to its own ``.jsonl[.gz]`` shard, so the write is distributed,
  resumable per file, and never collects the dataset.
- ``read_jsonl`` is a streaming ``FileBasedDatasource`` — parallelism is
  one task per shard (the standard layout: many shards, whole-stream
  gzip, not splittable within a file), rows batched into Arrow tables.

Determinism contract (same as the WARC encoder): byte-identical bytes
for identical rows — compact separators, fixed key order (the block's
column order), ``gzip`` with ``mtime=0``. Which *filename* a given block
lands in follows Ray's block completion order (exactly like
``write_parquet``): the sorted-line multiset across a shard directory is
run-invariant (verified), individual file names are not. Non-JSON-native
columns are encoded losslessly: ``timestamp('us')`` as integer
microseconds-since-epoch, ``binary`` as base64 — ``read_jsonl(
timestamp_cols=..., binary_cols=...)`` restores the Arrow types on the way
back in. The exception is non-finite floats: NaN and ±Inf become null.
"""

from __future__ import annotations

import base64
import gzip
import json
import math
from datetime import datetime
from typing import Iterator, Sequence

import pyarrow as pa

from .wet import _ts_us_of


def _coerce(v):
    """JSON-safe, lossless, deterministic value mapping."""
    if isinstance(v, (bytes, bytearray, memoryview)):
        return base64.b64encode(bytes(v)).decode("ascii")
    if isinstance(v, datetime):
        return _ts_us_of(v)
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _coerce(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_coerce(x) for x in v]
    return v


def encode_jsonl_row(row: dict, columns: Sequence[str]) -> bytes:
    """One line: keys in ``columns`` order, compact, UTF-8, no trailing
    whitespace besides the single ``\\n`` terminator."""
    obj = {c: _coerce(row.get(c)) for c in columns}
    return (
        json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)
        + "\n"
    ).encode("utf-8")


def encode_jsonl_block(tbl: pa.Table) -> bytes:
    cols = tbl.column_names
    return b"".join(encode_jsonl_row(r, cols) for r in tbl.to_pylist())


def write_jsonl(ds, path: str, *, compression: str | None = "gzip"):
    """Distributed JSONL write: one ``.jsonl[.gz]`` shard per block under
    ``path``. Whole-stream gzip with ``mtime=0`` (byte-deterministic), the
    layout every public corpus reader expects.

    NaN and ±Inf floats are written as ``null``: JSON has no literal for
    them, and strict readers reject the ``NaN`` token Python would emit.
    That is the one lossy mapping; :func:`read_jsonl` reads them back as
    null."""
    from ray.data.datasource import BlockBasedFileDatasink

    gz = compression == "gzip"
    if compression not in (None, "gzip"):
        raise ValueError(f"unsupported compression: {compression!r}")

    class JsonlDatasink(BlockBasedFileDatasink):
        def __init__(self):
            # compression=None on the stream: the .gz suffix would
            # otherwise make arrow wrap the stream in ANOTHER gzip layer
            # on top of the deterministic one below.
            super().__init__(
                path,
                file_format="jsonl.gz" if gz else "jsonl",
                open_stream_args={"compression": None},
            )

        def write_block_to_file(self, block, file):
            data = encode_jsonl_block(block.to_arrow())
            if gz:
                data = gzip.compress(data, compresslevel=6, mtime=0)
            file.write(data)

    ds.write_datasink(JsonlDatasink())


def iter_jsonl_rows(raw, *, path: str = "<stream>") -> Iterator[dict]:
    """Streaming line iterator -> parsed dict rows; blank lines skipped,
    a malformed line raises with the shard path + line number (corpus
    shards are write-once artifacts: a bad line means a bad shard, the
    per-row error policy belongs to the producing pipeline)."""
    for i, line in enumerate(raw):
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{i + 1}: malformed JSONL line: {e}") from e


def _jsonl_table(
    rows: list[dict],
    timestamp_cols: Sequence[str],
    binary_cols: Sequence[str],
) -> pa.Table:
    # Union of keys in first-seen order: shards written by write_jsonl have
    # one fixed key set, but foreign JSONL may vary per line — absent keys
    # read as null, no key is silently dropped.
    cols = list(dict.fromkeys(k for r in rows for k in r))
    arrays = []
    for c in cols:
        vals = [r.get(c) for r in rows]
        if c in timestamp_cols:
            arrays.append(pa.array(vals, pa.int64()).cast(pa.timestamp("us")))
        elif c in binary_cols:
            arrays.append(
                pa.array(
                    [None if v is None else base64.b64decode(v) for v in vals],
                    pa.binary(),
                )
            )
        else:
            arrays.append(pa.array(vals))
    return pa.table(dict(zip(cols, arrays)))


def read_jsonl(
    paths,
    *,
    batch_rows: int = 256,
    timestamp_cols: Sequence[str] = (),
    binary_cols: Sequence[str] = (),
):
    """Dataset of parsed rows from JSONL shard(s) — one read task per
    shard, rows batched into Arrow tables as they stream. ``timestamp_cols``
    / ``binary_cols`` restore columns written by :func:`write_jsonl` to
    ``timestamp('us')`` / ``binary`` (JSON itself carries them as int µs /
    base64). A float that was NaN or ±Inf when written reads back as null
    (see :func:`write_jsonl`)."""
    import ray.data
    from ray.data.datasource.file_based_datasource import FileBasedDatasource

    from ..sources.warc import _NativeFileAdapter

    ts_cols = tuple(timestamp_cols)
    bin_cols = tuple(binary_cols)

    class JsonlDatasource(FileBasedDatasource):
        _FILE_EXTENSIONS = ["jsonl", "jsonl.gz", "json.gz"]

        def _open_input_source(self, filesystem, p, **open_args):
            open_args.pop("compression", None)
            return filesystem.open_input_stream(p, compression=None, **open_args)

        def _read_stream(self, f, p: str):
            import io

            raw = (
                gzip.GzipFile(fileobj=_NativeFileAdapter(f))
                if p.endswith(".gz")
                else io.BufferedReader(_NativeFileAdapter(f))
            )
            rows: list[dict] = []
            for row in iter_jsonl_rows(raw, path=p):
                rows.append(row)
                if len(rows) >= batch_rows:
                    yield _jsonl_table(rows, ts_cols, bin_cols)
                    rows = []
            if rows:
                yield _jsonl_table(rows, ts_cols, bin_cols)

    return ray.data.read_datasource(JsonlDatasource(paths))
