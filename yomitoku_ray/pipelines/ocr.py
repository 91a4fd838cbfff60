"""OCR-standalone pipeline: words only (no layout aggregation).

Analogue of the reference's ``OCR`` class (``/root/reference/src/yomitoku/
ocr.py:27-63``): text detection + recognition + det⋈rec zip
(``ocr_aggregate``, ocr.py:6-24), skipping the layout/table stages. Useful
when only the word stream matters (indexing, token counting).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from ..detect import BoilerplateClassifier, PageLayoutEngine
from ..dom import DecodeError, decode_html
from ..schemas import WORD
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


class OcrStage:
    """Actor stage: html -> word stream (det⋈rec output shape)."""

    def __init__(self, classifier_config: dict | None = None):
        self.engine = PageLayoutEngine(BoilerplateClassifier(**(classifier_config or {})))

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"error": [], "words": [], "n_words": [], "content": []}
        for raw in batch.column("html").to_pylist():
            try:
                det = self.engine.detect(decode_html(raw or b""))
                words = [w.to_dict() for w in det.words]
                content = "\n".join(w.content for w in det.words)
                out["error"].append(None)
                out["words"].append(words)
                out["n_words"].append(len(words))
                out["content"].append(content)
            except DecodeError as e:
                self._append_error(out, str(e))
            except Exception as e:
                self._append_error(out, f"{type(e).__name__}: {e}")
        cols = {"url": batch.column("url")}
        for f in OCR_RESULT_SCHEMA:
            if f.name not in cols:
                cols[f.name] = pa.array(out[f.name], f.type)
        return pa.Table.from_arrays(
            [cols[f.name] for f in OCR_RESULT_SCHEMA], schema=OCR_RESULT_SCHEMA
        )

    @staticmethod
    def _append_error(out, err):
        out["error"].append(err)
        out["words"].append([])
        out["n_words"].append(0)
        out["content"].append("")


def ocr_pages(path, concurrency=(2, 16), batch_size=32) -> ray.data.Dataset:
    ds = ray.data.read_parquet(path, columns=list(PAGES_COLUMNS))
    return ds.map_batches(
        OcrStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
