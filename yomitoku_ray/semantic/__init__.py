"""Semantic table parsing pipeline (TableSemanticParser analogue)."""

from __future__ import annotations

from .parser import parse_semantic_tables
from .schemas import SemanticDocument, SemanticParagraph


def semantic_from_detections(det, merge_same_column_values=False) -> SemanticDocument:
    """Detections -> SemanticDocument (role clustering, grids, kv items)."""
    paragraphs = [
        SemanticParagraph(id=None, box=list(p.box), score=p.score, role=p.role)
        for p in det.paragraphs
    ]
    return parse_semantic_tables(
        det.semantic_tables,
        det.words,
        paragraphs,
        merge_same_column_values=merge_same_column_values,
    )
