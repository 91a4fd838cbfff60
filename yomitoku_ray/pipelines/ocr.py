"""OCR-standalone pipeline: words only (no layout aggregation).

Analogue of the reference's ``OCR`` class (``/root/reference/src/yomitoku/
ocr.py:27-63``): text detection + recognition + det⋈rec zip
(``ocr_aggregate``, ocr.py:6-24), skipping the layout/table stages. Useful
when only the word stream matters (indexing, token counting).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from ..dom import decode_html
from ..schemas import WORD
from ..stages.page_stage import PageStage, map_page_stage, per_row_errors
from .extract import PAGES_COLUMNS

OCR_RESULT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("error", pa.string()),
        ("words", pa.list_(WORD)),
        ("n_words", pa.int32()),
        ("content", pa.large_string()),
    ]
)


class OcrStage(PageStage):
    """Page stage: html -> word stream (det⋈rec output shape)."""

    schema = OCR_RESULT_SCHEMA
    empty_row = {"words": [], "n_words": 0, "content": ""}

    @per_row_errors
    def page(self, raw, url):
        det = self.engine.detect(decode_html(raw or b""))
        return {
            "words": [w.to_dict() for w in det.words],
            "n_words": len(det.words),
            "content": "\n".join(w.content for w in det.words),
        }


def ocr_pages(path, concurrency: int | None = None, batch_size=32) -> ray.data.Dataset:
    """read -> OCR word stream, lazy Dataset; ``concurrency`` caps the
    stage's concurrent tasks (``map_page_stage``)."""
    ds = ray.data.read_parquet(path, columns=list(PAGES_COLUMNS))
    return map_page_stage(ds, OcrStage, batch_size=batch_size, concurrency=concurrency)
