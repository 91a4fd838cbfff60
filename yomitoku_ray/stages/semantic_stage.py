"""Semantic parsing + rule extraction as a Ray Data page stage.

The TableSemanticParser pipeline (A5/T1-T7) + the rule extraction cascade
(E1-E4) fused per row (same rationale as the fused extract stage).
``semantic_document`` is the one per-page parse: the stage calls it with
one engine per batch, the single-process oracle
(``oracle.parse_semantic_html_bytes``) with a fresh engine per page. The
extraction schema reaches every task through the stage's constructor
kwargs — the small-side broadcast pattern (no shuffle).
"""

from __future__ import annotations

import pyarrow as pa

from ..detect import PageLayoutEngine
from ..dom import decode_html
from ..export.json_export import (
    fast_canonical_json,
    fast_semantic_dump_json,
    fast_views_json,
)
from ..extractor.rule_pipeline import run_rule_extraction
from ..extractor.schema import ExtractionSchema
from ..semantic import semantic_from_detections
from ..semantic.schemas import SemanticDocument
from .page_stage import PageStage, per_row_errors

SEMANTIC_RESULT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("error", pa.string()),
        ("semantic_json", pa.large_string()),
        ("views_json", pa.large_string()),
        ("extraction_json", pa.large_string()),
        ("n_tables", pa.int32()),
        ("n_kv_items", pa.int32()),
        ("n_grids", pa.int32()),
    ]
)


@per_row_errors
def semantic_document(
    engine: PageLayoutEngine, raw: bytes | None, merge_same_column_values: bool = False
) -> SemanticDocument:
    """One page: html bytes -> (SemanticDocument, None), or (None, error).
    ``engine`` must collect semantic cells (``collect_semantic=True``)."""
    det = engine.detect(decode_html(raw or b""))
    return semantic_from_detections(det, merge_same_column_values)


class SemanticExtractStage(PageStage):
    """decode -> detect -> semantic parse [-> rule extraction] per row."""

    schema = SEMANTIC_RESULT_SCHEMA
    empty_row = {
        "semantic_json": "",
        "views_json": "",
        "extraction_json": "",
        "n_tables": 0,
        "n_kv_items": 0,
        "n_grids": 0,
    }
    collect_semantic = True

    def __init__(
        self,
        extraction_schema: dict | None = None,
        merge_same_column_values: bool = False,
    ):
        super().__init__()
        self.extraction_schema = (
            ExtractionSchema.from_dict(extraction_schema) if extraction_schema else None
        )
        self.merge_same_column_values = merge_same_column_values

    def page(self, raw, url):
        doc, err = semantic_document(self.engine, raw, self.merge_same_column_values)
        return (None, err) if err is not None else self._columns(doc)

    @per_row_errors
    def _columns(self, doc: SemanticDocument) -> dict:
        row = {
            "semantic_json": fast_semantic_dump_json(doc),
            "views_json": fast_views_json(doc.to_dict()),
            "extraction_json": "",
        }
        if self.extraction_schema is not None:
            row["extraction_json"] = fast_canonical_json(
                run_rule_extraction(doc, self.extraction_schema, simple=True)
            )
        row["n_tables"] = len(doc.tables)
        row["n_kv_items"] = sum(len(t.kv_items) for t in doc.tables)
        row["n_grids"] = sum(len(t.grids) for t in doc.tables)
        return row
