"""Fused extraction stage: html bytes -> final output columns in one task.

The reference runs its four models plus aggregation per page inside one call
(document_analyzer.py:603-634); ``extract_document`` is that call here, the
one implementation of decode -> detect -> aggregate -> render. The stage
maps it over a batch with one engine for the whole batch, and the
single-process oracle (``oracle.analyze_html_bytes``) calls it with a fresh
engine per page, so the byte-identity gates catch any engine state that
leaks from one page into the next.
"""

from __future__ import annotations

from ..analyze import aggregate_document
from ..detect import PageLayoutEngine
from ..dom import decode_html
from ..render import doc_stem_for_url, render_document
from ..schemas import RESULT_SCHEMA
from .page_stage import PageStage, per_row_errors


@per_row_errors
def extract_document(
    engine: PageLayoutEngine,
    raw: bytes | None,
    url: str,
    reading_order: str = "auto",
    ignore_meta: bool = False,
    ignore_ruby: bool = False,
) -> dict:
    """One page: html bytes -> (output columns, None), or (None, error)."""
    det = engine.detect(decode_html(raw or b""))
    document = aggregate_document(
        det.words,
        det.paragraphs,
        det.tables,
        det.figures,
        reading_order=reading_order,
        ignore_meta=ignore_meta,
        ignore_ruby=ignore_ruby,
    )
    cols = render_document(document, doc_stem=doc_stem_for_url(url))
    cols["n_words"] = len(document.words)
    cols["n_tables"] = len(document.tables)
    cols["n_paragraphs"] = len(document.paragraphs)
    cols["n_figures"] = len(document.figures)
    cols["n_boilerplate"] = det.n_boilerplate
    cols["truncated"] = det.truncated
    return cols


class FusedExtractStage(PageStage):
    """``extract_document`` per row, ``RESULT_SCHEMA`` out."""

    schema = RESULT_SCHEMA
    empty_row = {
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

    def __init__(
        self,
        reading_order: str = "auto",
        ignore_meta: bool = False,
        ignore_ruby: bool = False,
    ):
        super().__init__()
        self.reading_order = reading_order
        self.ignore_meta = ignore_meta
        self.ignore_ruby = ignore_ruby

    def page(self, raw, url):
        return extract_document(
            self.engine, raw, url, self.reading_order, self.ignore_meta, self.ignore_ruby
        )
