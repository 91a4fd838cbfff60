"""Semantic parsing pipeline composition (TableSemanticParser analogue)."""

from __future__ import annotations

import ray.data

from ..stages.page_stage import map_page_stage
from ..stages.semantic_stage import SemanticExtractStage
from .extract import PAGES_COLUMNS


def semantic_pages(
    path,
    extraction_schema: dict | None = None,
    concurrency: int | None = None,
    batch_size: int = 32,
    merge_same_column_values: bool = False,
) -> ray.data.Dataset:
    """read -> semantic parse [-> rule extraction], lazy Dataset;
    ``concurrency`` caps the stage's concurrent tasks (``map_page_stage``)."""
    ds = ray.data.read_parquet(path, columns=list(PAGES_COLUMNS))
    return map_page_stage(
        ds,
        SemanticExtractStage,
        {
            "extraction_schema": extraction_schema,
            "merge_same_column_values": merge_same_column_values,
        },
        batch_size=batch_size,
        concurrency=concurrency,
    )
