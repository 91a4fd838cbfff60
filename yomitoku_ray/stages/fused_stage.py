"""Fused extraction stage: html bytes -> final output columns in one actor.

The reference runs its four models plus aggregation per page inside one call
(document_analyzer.py:603-634); ``extract_document`` is that call here, the
one implementation of decode -> detect -> aggregate -> render. The actor
stage maps it over a batch with its long-lived engine, and the
single-process oracle (``oracle.analyze_html_bytes``) calls it with a fresh
engine per page, so the byte-identity gates catch any engine state that
leaks from one page into the next.
"""

from __future__ import annotations

import pyarrow as pa

from ..analyze import aggregate_document
from ..detect import BoilerplateClassifier, PageLayoutEngine
from ..dom import DecodeError, decode_html
from ..render import doc_stem_for_url, render_document
from ..schemas import RESULT_SCHEMA


def _empty_columns() -> dict:
    return {
        "extracted_text": "",
        "spans": [],
        "markdown": "",
        "html": "",
        "csv": "",
        "doc_json": "",
        "n_words": 0,
        "n_tables": 0,
        "n_paragraphs": 0,
        "n_figures": 0,
        "n_boilerplate": 0,
        "truncated": False,
    }


def extract_document(
    engine: PageLayoutEngine,
    raw: bytes,
    url: str,
    reading_order: str = "auto",
    ignore_meta: bool = False,
    ignore_ruby: bool = False,
    ruby_threshold: float = 2.0,
):
    """One page: html bytes -> (output columns, error | None).

    A failed page returns ``(empty columns, error string)`` — the per-row
    error policy of ``cli/main.py:548-549``: a malformed page yields an
    error row, never a failed block.
    """
    try:
        text = decode_html(raw or b"")
        det = engine.detect(text)
        document = aggregate_document(
            det.words,
            det.paragraphs,
            det.tables,
            det.figures,
            reading_order=reading_order,
            ignore_meta=ignore_meta,
            ignore_ruby=ignore_ruby,
            ruby_threshold=ruby_threshold,
        )
        cols = render_document(document, doc_stem=doc_stem_for_url(url))
        cols["n_words"] = len(document.words)
        cols["n_tables"] = len(document.tables)
        cols["n_paragraphs"] = len(document.paragraphs)
        cols["n_figures"] = len(document.figures)
        cols["n_boilerplate"] = det.n_boilerplate
        cols["truncated"] = det.truncated
        return cols, None
    except DecodeError as e:
        return _empty_columns(), str(e)
    except Exception as e:
        return _empty_columns(), f"{type(e).__name__}: {e}"


class FusedExtractStage:
    """``extract_document`` per row, one actor pool, Arrow in/out.

    A ``path`` column in the input (a reader's ``include_paths``) is passed
    through after the ``RESULT_SCHEMA`` columns, so a downstream writer can
    route each row by its source file."""

    def __init__(
        self,
        classifier_config: dict | None = None,
        reading_order: str = "auto",
        ignore_meta: bool = False,
        ignore_ruby: bool = False,
        ruby_threshold: float = 2.0,
    ):
        self.engine = PageLayoutEngine(BoilerplateClassifier(**(classifier_config or {})))
        self.reading_order = reading_order
        self.ignore_meta = ignore_meta
        self.ignore_ruby = ignore_ruby
        self.ruby_threshold = ruby_threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = {
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "lang": batch.column("lang"),
        }
        out = {f.name: [] for f in RESULT_SCHEMA if f.name not in cols}
        for url, raw in zip(cols["url"].to_pylist(), batch.column("html").to_pylist()):
            page, err = extract_document(
                self.engine,
                raw,
                url,
                self.reading_order,
                self.ignore_meta,
                self.ignore_ruby,
                self.ruby_threshold,
            )
            out["error"].append(err)
            for key, value in page.items():
                out[key].append(value)

        for f in RESULT_SCHEMA:
            if f.name not in cols:
                cols[f.name] = pa.array(out[f.name], f.type)
        table = pa.Table.from_arrays(
            [cols[f.name] for f in RESULT_SCHEMA], schema=RESULT_SCHEMA
        )
        if "path" in batch.column_names:
            table = table.append_column("path", batch.column("path"))
        return table
