"""Final per-document rendering: extracted text + spans + export columns.

The engine's output contract (FIXTURES.md §4): per url,

- ``extracted_text``: ordered element contents, words already joined with
  "\\n" inside elements (document_analyzer.py:235 parity), elements joined
  with "\\n";
- ``spans``: byte offsets (utf-8) of each element's contents within
  ``extracted_text`` with elem_type/order;
- ``markdown`` / ``doc_json`` / ``csv`` / ``html``: the reference exporters'
  string outputs (export_markdown.py:114-146, export_json.py:88-97,
  export_csv.py:60-157, export_html.py:149-191).

Called once per page by ``stages.fused_stage.extract_document``.
"""

from __future__ import annotations

import hashlib

from .export.csv_export import convert_csv, render_csv
from .export.html_export import convert_html
from .export.json_export import convert_json
from .export.markdown import convert_markdown
from .models import Document


def doc_stem_for_url(url: str) -> str:
    """Deterministic output stem for a url (figure naming)."""
    return hashlib.sha1(url.encode("utf-8")).hexdigest()[:16]


def _element_text(kind, element):
    if kind == "paragraph":
        return element.contents or ""
    if kind == "table":
        return "\n".join(cell.contents or "" for cell in element.cells)
    if kind == "figure":
        return "\n".join(p.contents or "" for p in element.paragraphs)
    raise ValueError(kind)


def extract_text_with_spans(document: Document):
    """Ordered plain-text assembly + per-element byte spans."""
    items = []
    for p in document.paragraphs:
        items.append(("paragraph", p.order, _element_text("paragraph", p)))
    for t in document.tables:
        items.append(("table", t.order, _element_text("table", t)))
    for f in document.figures:
        items.append(("figure", f.order, _element_text("figure", f)))
    items.sort(key=lambda x: x[1])

    parts = []
    spans = []
    byte_pos = 0
    for i, (kind, order, text) in enumerate(items):
        if i > 0:
            byte_pos += 1  # the joining "\n"
        nbytes = len(text.encode("utf-8"))
        spans.append(
            {
                "start": byte_pos,
                "end": byte_pos + nbytes,
                "elem_type": kind,
                "order": order,
            }
        )
        byte_pos += nbytes
        parts.append(text)

    return "\n".join(parts), spans


def render_document(document: Document, doc_stem: str = "doc") -> dict:
    """All output columns for one document."""
    extracted_text, spans = extract_text_with_spans(document)
    markdown, _ = convert_markdown(document, doc_stem=doc_stem)
    html_out, _ = convert_html(document, doc_stem=doc_stem)
    csv_out = render_csv(convert_csv(document))
    doc_json = convert_json(document)
    return {
        "extracted_text": extracted_text,
        "spans": spans,
        "markdown": markdown,
        "html": html_out,
        "csv": csv_out,
        "doc_json": doc_json,
    }
