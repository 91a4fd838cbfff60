"""Single-process reference-semantics oracle.

One function per document: html bytes -> output columns, computed exactly the
way the reference's DocumentAnalyzer would (decode -> detect -> aggregate ->
export; ``/root/reference/src/yomitoku/document_analyzer.py:603-643``), with
no Ray involvement. The pytest suite compares the Ray pipeline's output
byte-for-byte against this oracle (the golden-file pattern of
``/root/reference/tests/test_table_semantic_from_json.py:116-148``, tightened
to byte identity per the north rule).

The per-page body is the fused stage's ``extract_document``; the oracle runs
it on a fresh engine for every page, where the actor reuses one engine for
all of its pages.
"""

from __future__ import annotations

from .detect import BoilerplateClassifier, PageLayoutEngine
from .stages.fused_stage import extract_document


def analyze_html_bytes(
    raw: bytes,
    url: str = "doc",
    reading_order: str = "auto",
    ignore_meta: bool = False,
    ignore_ruby: bool = False,
    ruby_threshold: float = 2.0,
    classifier: BoilerplateClassifier | None = None,
):
    """Full oracle run for one page. Returns (columns dict, error | None).

    A failed document returns ``(empty columns, error string)`` — the per-row
    error policy mirroring ``cli/main.py:548-549``. The columns are the
    reference analyzer's outputs; the engine's boilerplate and truncation
    counters are left out.
    """
    cols, err = extract_document(
        PageLayoutEngine(classifier),
        raw,
        url,
        reading_order,
        ignore_meta,
        ignore_ruby,
        ruby_threshold,
    )
    del cols["n_boilerplate"], cols["truncated"]
    return cols, err
