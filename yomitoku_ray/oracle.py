"""Single-process reference-semantics oracle.

One function per document: html bytes -> output columns, computed exactly the
way the reference's DocumentAnalyzer would (decode -> detect -> aggregate ->
export; ``/root/reference/src/yomitoku/document_analyzer.py:603-643``), with
no Ray involvement. The pytest suite compares the Ray pipeline's output
byte-for-byte against this oracle (the golden-file pattern of
``/root/reference/tests/test_table_semantic_from_json.py:116-148``, tightened
to byte identity per the north rule).

The per-page bodies are the stages' ``extract_document`` and
``semantic_document``; the oracle runs them on a fresh engine for every
page, where a stage reuses one engine for all the pages of its batch.
"""

from __future__ import annotations

from .detect import PageLayoutEngine
from .stages.fused_stage import FusedExtractStage, extract_document
from .stages.semantic_stage import semantic_document


def analyze_html_bytes(
    raw: bytes,
    url: str = "doc",
    reading_order: str = "auto",
    ignore_meta: bool = False,
    ignore_ruby: bool = False,
):
    """Full oracle run for one page. Returns (columns dict, error | None).

    A failed document returns ``(empty columns, error string)`` — the per-row
    error policy mirroring ``cli/main.py:548-549``. The columns are the
    reference analyzer's outputs; the engine's boilerplate and truncation
    counters are left out.
    """
    cols, err = extract_document(
        PageLayoutEngine(), raw, url, reading_order, ignore_meta, ignore_ruby
    )
    cols = dict(FusedExtractStage.empty_row if err is not None else cols)
    del cols["n_boilerplate"], cols["truncated"]
    return cols, err


def parse_semantic_html_bytes(raw: bytes, merge_same_column_values: bool = False):
    """Single-process semantic parse of one page. Returns (doc, err)."""
    return semantic_document(
        PageLayoutEngine(collect_semantic=True), raw, merge_same_column_values
    )
